//! An in-process message-passing cluster for exercising distributed
//! protocols.
//!
//! AgileML (the paper's elastic parameter-server framework) is a
//! distributed system: workers, parameter servers, backups, and an
//! elasticity controller exchanging messages over a network, with machines
//! appearing and disappearing as the spot market moves. This crate
//! provides the substrate those components run on in this reproduction:
//!
//! * every simulated machine is a [`NodeId`] running a user-supplied
//!   behavior and exchanging typed messages with its peers;
//! * the harness can **revoke** a node (deliver an eviction warning, like
//!   EC2's two-minute notice) or **kill** it abruptly (a failure:
//!   in-flight messages to it are lost);
//! * per-pair traffic counters support asserting network behavior in
//!   tests (e.g. that backup streams flow reliable-ward only);
//! * a seeded [`FaultPlan`] drops, duplicates and reorders messages.
//!
//! All of it runs on the **discrete-event** [`SimCluster`]: one
//! timestamp-ordered [`proteus_simtime::EventQueue`] drives [`SimNode`]
//! components via `on_message` / `on_control` / `on_timer` handlers,
//! with link latency as scheduled delivery events and same-instant
//! handlers of distinct nodes dispatched in parallel under a fixed
//! commit order. AgileML, and everything above it, runs here: a job
//! costs its handlers, not a thread per machine, and is fully
//! deterministic — same script, same event sequence, byte-identical obs,
//! at any thread count.
//!
//! The **thread-per-node** [`Cluster`] is only the yardstick the
//! benchmark times a message hop against: every node is an OS thread
//! with a blocking mailbox ([`NodeCtx::send`] / [`NodeCtx::recv`]), with
//! no fault layer, node controls or traffic ledger.

// Fault- and teardown-reachable paths must return typed errors; any
// retained expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod cluster;
pub mod event_core;
pub mod fault;
pub mod message;
pub mod node;

pub use cluster::{Cluster, ClusterHandle, NodeCtx};
pub use event_core::{FnNode, NetStats, SimCluster, SimCtx, SimNode, TimerId};
pub use fault::{FaultPlan, FaultRule, FaultStats, MsgFilter};
pub use message::{Control, Envelope, Incoming, RecvError, SendError};
pub use node::{NodeClass, NodeId};
