//! Typed failures for the driver-facing job API.
//!
//! The chaos harness (crates/agileml/tests/chaos.rs) asserts that a job
//! under injected faults either converges or fails with one of these
//! values — never a panic. Conditions the controller cannot recover from
//! (reliable-tier losses, missing backups) surface as a [`JobFault`]
//! inside [`crate::events::JobEvent::Faulted`] and are converted to
//! [`JobError::Fault`] by the waiting driver.

use std::fmt;

use proteus_simnet::NodeId;

/// An error returned by [`crate::job::AgileMlJob`] driver methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Configuration was rejected before launch.
    InvalidConfig(String),
    /// The controller node is gone; no command can be delivered.
    ControllerUnreachable(String),
    /// A driver-side wait dispatched its bound of batches while the job
    /// kept training without ever reporting the expected event.
    Timeout {
        /// What the driver was waiting for.
        waiting_for: &'static str,
    },
    /// A driver-side wait found the event queue dry before the expected
    /// event was reported: nothing left to run can report it, so the
    /// job is deadlocked, not slow.
    Stalled {
        /// What the driver was waiting for.
        waiting_for: &'static str,
    },
    /// The controller declared the job unrecoverable.
    Fault(JobFault),
}

/// Unrecoverable conditions the controller reports instead of panicking.
///
/// These replace the former `assert!`/`expect` landmines on the
/// eviction/recovery paths: a job that hits one is *wedged by design*
/// (the paper assumes the reliable tier is never revoked and always
/// holds solution state), but the process stays alive and the driver
/// gets a typed answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFault {
    /// Reliable machines failed; solution state may be gone and recovery
    /// needs an external checkpoint (paper Sec. 3.3).
    ReliableNodesFailed {
        /// The failed reliable nodes.
        nodes: Vec<NodeId>,
    },
    /// An eviction warning named reliable machines; the market never
    /// revokes the reliable tier, so the controller refuses to drain
    /// solution state off of it.
    ReliableNodesEvicted {
        /// The reliable nodes named in the warning.
        nodes: Vec<NodeId>,
    },
    /// A partition has neither a surviving owner nor a backup copy.
    PartitionStateLost {
        /// The orphaned partition.
        partition: u32,
    },
    /// Recovery needed backups but none exist.
    NoBackups,
}

impl fmt::Display for JobFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFault::ReliableNodesFailed { nodes } => {
                write!(
                    f,
                    "reliable nodes failed (need external checkpoint): {nodes:?}"
                )
            }
            JobFault::ReliableNodesEvicted { nodes } => {
                write!(f, "eviction warning named reliable nodes: {nodes:?}")
            }
            JobFault::PartitionStateLost { partition } => {
                write!(
                    f,
                    "partition {partition} lost: no surviving owner or backup"
                )
            }
            JobFault::NoBackups => write!(f, "recovery needed backups but none exist"),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            JobError::ControllerUnreachable(why) => write!(f, "controller unreachable: {why}"),
            JobError::Timeout { waiting_for } => write!(f, "timed out waiting for {waiting_for}"),
            JobError::Stalled { waiting_for } => {
                write!(
                    f,
                    "stalled waiting for {waiting_for}: the event queue ran dry"
                )
            }
            JobError::Fault(fault) => write!(f, "job fault: {fault}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<String> for JobError {
    fn from(why: String) -> Self {
        JobError::InvalidConfig(why)
    }
}

/// Lets existing `Result<_, String>` call sites propagate a [`JobError`]
/// with `?`.
impl From<JobError> for String {
    fn from(e: JobError) -> Self {
        e.to_string()
    }
}
