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
//! * per-node traffic counters support asserting network behavior in
//!   tests (e.g. that backup streams flow reliable-ward only);
//! * a seeded [`FaultPlan`] drops, duplicates and reorders messages.
//!
//! Two execution cores share the same routing, chaos, and accounting
//! semantics:
//!
//! * the **discrete-event** [`SimCluster`] — one timestamp-ordered
//!   [`proteus_simtime::EventQueue`] drives [`SimNode`] components via
//!   `on_message` / `on_control` / `on_timer` handlers, with link
//!   latency as scheduled delivery events and same-instant handlers of
//!   distinct nodes dispatched in parallel under a fixed commit order.
//!   AgileML, and everything above it, runs here: a job costs its
//!   handlers, not a thread per machine, and is fully deterministic —
//!   same script, same event sequence, byte-identical obs, at any
//!   thread count.
//! * the **thread-per-node** [`Cluster`] — every node is an OS thread
//!   with a blocking mailbox ([`NodeCtx::send`] / [`NodeCtx::recv`]).
//!   Kept only as the yardstick the benchmarks time a hop against; under
//!   it, message order between different senders is nondeterministic
//!   exactly as on a real network.

// Fault- and teardown-reachable paths must return typed errors; any
// retained expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod event_core;
pub mod fault;
pub mod message;
pub mod node;

pub use cluster::{Cluster, ClusterHandle, NetStats};
pub use event_core::{FnNode, SimCluster, SimCtx, SimNode, TimerId};
pub use fault::{FaultPlan, FaultRule, FaultStats, MsgFilter};
pub use message::{Control, Envelope, Incoming, RecvError, SendError};
pub use node::{NodeClass, NodeCtx, NodeId};

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

// The cluster's locks guard plain tables that stay consistent whatever
// a panicking node handler did, so a poisoned lock is recovered, never
// propagated into every other node.

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
