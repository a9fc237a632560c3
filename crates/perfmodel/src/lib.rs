//! Analytic cluster performance model for AgileML layouts.
//!
//! The paper's Sec. 6.4–6.6 experiments measure time-per-iteration on a
//! real 64-machine EC2 cluster with ~1 Gbps links. That testbed is not
//! available here, so this crate models the *bottleneck arithmetic* those
//! experiments exercise: every machine has a full-duplex NIC; each
//! iteration moves read traffic (parameter server → workers), update
//! traffic (workers → parameter server), and — in stages 2/3 — coalesced
//! backup pushes (ActivePS → BackupPS); time per iteration is the maximum
//! over gating machines of compute time and NIC drain time.
//!
//! The model reproduces the paper's shapes:
//!
//! * stage 1 collapses when few reliable machines serve the whole read
//!   volume (Fig. 11);
//! * stage 2 spreads serving over ActivePSs, leaving a residual straggler
//!   effect on reliable machines whose workers share a NIC with backup
//!   inflow (Fig. 12);
//! * stage 3 removes those workers and matches the traditional layout at
//!   63:1 (Fig. 13), while losing to stage 2 at 1:1 because it discards
//!   half the compute (Fig. 14);
//! * strong scaling stays near ideal for compute-heavy apps (Fig. 15);
//! * elasticity timelines show a one-iteration blip on eviction
//!   (Fig. 16).

// Model arithmetic returns values or typed errors, never panics; any
// retained expect documents a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]

mod autotune;
mod layout;
pub mod presets;
mod series;
mod workload;

pub use autotune::{auto_thresholds, StageThresholds};
pub use layout::{time_per_iteration, ClusterSpec, Layout};
pub use series::{elasticity_timeline, scaling_curve, TimelinePhase};
pub use workload::AppTraffic;
