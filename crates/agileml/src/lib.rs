//! AgileML — the paper's elastic parameter-server framework (Sec. 3).
//!
//! AgileML organizes machines into **tiers of reliability** and deploys
//! different functional components to different tiers so that ML training
//! can exploit cheap transient machines without ever risking solution
//! state:
//!
//! * **Stage 1** — parameter servers (`ParamServ`) only on reliable
//!   machines; transient machines run only workers. Safe but the few
//!   reliable machines bottleneck at high transient:reliable ratios.
//! * **Stage 2** — an **ActivePS** primary runs on transient machines
//!   (sharded, serving all reads/updates) and streams coalesced updates in
//!   the background to a **BackupPS** hot standby on reliable machines.
//! * **Stage 3** — additionally removes workers from reliable machines,
//!   whose background backup traffic otherwise turns those workers into
//!   stragglers (beyond ~15:1 ratios).
//!
//! The elasticity controller (the `controller` module) tracks membership, assigns
//! input-data blocks to workers, picks the stage from the
//! transient:reliable ratio, and orchestrates bulk scale-up, warned
//! evictions (drain-to-backup within the warning window), and failures
//! (online rollback to the last backup-consistent clock).
//!
//! Everything runs for real over [`proteus_simnet`]'s discrete-event
//! core: every simulated machine is a message handler on one
//! timestamp-ordered queue, message passing only, faults injected by
//! the harness, and a job is a pure function of its inputs and the
//! calls made on it. The entry point is [`AgileMlJob`].

// Controller/node/topology logic must report faults through the event
// channel, never panic; any retained expect documents a real invariant
// at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]

mod config;
mod controller;
mod error;
mod events;
mod job;
mod msg;
mod node;
mod server;
mod stage;
mod topology;
mod worker;

pub use config::AgileConfig;
pub use error::{JobError, JobFault};
pub use events::{JobEvent, JobStatus};
pub use job::{AgileMlJob, ModelSnapshot, SnapshotReader};
pub use msg::{AgileMsg, Command, NodeAssignment};
pub use server::ServerState;
pub use stage::{select_stage, Stage};
pub use topology::{BlockId, Topology};
pub use worker::{BlockKeys, WorkerState};
