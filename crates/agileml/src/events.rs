//! Observable job events and status, surfaced to the driver.

use proteus_simnet::NodeId;

use crate::error::JobFault;
use crate::stage::Stage;

/// Events the controller emits to the driver's event channel as the job
/// runs — the raw material of the elasticity timeline (paper Fig. 16).
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// All initially expected nodes are ready and iteration began.
    Started {
        /// Nodes participating at start.
        nodes: usize,
    },
    /// The global minimum clock advanced (an "iteration" completed).
    ClockAdvanced {
        /// The new minimum clock.
        min: u64,
    },
    /// The controller switched stages.
    StageChanged {
        /// Previous stage.
        from: Stage,
        /// New stage.
        to: Stage,
    },
    /// Nodes were integrated into the computation.
    NodesAdded {
        /// The new nodes.
        nodes: Vec<NodeId>,
    },
    /// Nodes were drained and removed after an eviction warning.
    NodesEvicted {
        /// The removed nodes.
        nodes: Vec<NodeId>,
    },
    /// Nodes were proactively demoted on a forecast alert: their
    /// ActivePS partitions migrated off, but the nodes keep working.
    NodesPreDrained {
        /// The demoted nodes (still members, no longer serving).
        nodes: Vec<NodeId>,
        /// ActivePS partitions moved off the demoted nodes.
        partitions: u64,
    },
    /// Part of the reliable tier died (or drained on a warning) and the
    /// controller repaired it in-job: the victims' BackupPS partitions
    /// were re-replicated onto surviving reliable nodes, so no restart
    /// from an external checkpoint was needed.
    ReliableRepaired {
        /// The lost reliable nodes.
        nodes: Vec<NodeId>,
        /// Backup partitions re-replicated onto survivors.
        partitions: u64,
    },
    /// Nodes failed and rollback recovery ran.
    NodesFailedRecovered {
        /// The failed nodes.
        nodes: Vec<NodeId>,
        /// The consistent clock the job rolled back to.
        rolled_back_to: u64,
    },
    /// The controller hit an unrecoverable condition and reported it
    /// instead of panicking; waiting drivers surface it as
    /// [`crate::error::JobError::Fault`].
    Faulted {
        /// What went wrong.
        fault: JobFault,
    },
}

impl JobEvent {
    /// The observability mirror of this event: same facts, but with
    /// node lists reduced to counts and enums rendered to strings so the
    /// record is self-describing without this crate's types.
    pub fn to_obs(&self) -> proteus_obs::AgileEvent {
        use proteus_obs::AgileEvent as O;
        match self {
            JobEvent::Started { nodes } => O::Started {
                nodes: *nodes as u64,
            },
            JobEvent::ClockAdvanced { min } => O::ClockAdvanced { min: *min },
            JobEvent::StageChanged { from, to } => O::StageChanged {
                from: format!("{from:?}"),
                to: format!("{to:?}"),
            },
            JobEvent::NodesAdded { nodes } => O::NodesAdded {
                count: nodes.len() as u64,
            },
            JobEvent::NodesEvicted { nodes } => O::NodesEvicted {
                count: nodes.len() as u64,
            },
            JobEvent::NodesPreDrained { nodes, partitions } => O::NodesPreDrained {
                count: nodes.len() as u64,
                partitions: *partitions,
            },
            JobEvent::ReliableRepaired { nodes, partitions } => O::ReliableRepaired {
                count: nodes.len() as u64,
                partitions: *partitions,
            },
            JobEvent::NodesFailedRecovered {
                nodes,
                rolled_back_to,
            } => O::NodesFailedRecovered {
                count: nodes.len() as u64,
                rolled_back_to: *rolled_back_to,
            },
            JobEvent::Faulted { fault } => O::Faulted {
                fault: fault.to_string(),
            },
        }
    }
}

/// A point-in-time status snapshot of the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Current stage.
    pub stage: Stage,
    /// Reliable node count.
    pub reliable: usize,
    /// Transient node count.
    pub transient: usize,
    /// Number of nodes currently hosting an ActivePS (0 in stage 1).
    pub active_ps: usize,
    /// Number of live workers holding a data block: the ones the
    /// minimum clock waits on.
    pub workers: usize,
    /// Minimum completed clock across workers.
    pub min_clock: u64,
}
