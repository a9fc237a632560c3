//! The message vocabulary of the AgileML protocol.
//!
//! One enum covers the control plane (membership, topology, clocks,
//! elasticity orchestration), the data plane (parameter reads/updates),
//! the active→backup streaming channel, and harness commands to the
//! elasticity controller.

use std::sync::Arc;

use proteus_ps::{DenseVec, KeySet, PartitionId};
use proteus_simnet::{NodeClass, NodeId};

use crate::events::{JobEvent, JobStatus};
use crate::job::ModelSnapshot;
use crate::topology::{BlockId, Topology};

/// `(key, row)` pairs on the wire — one flat, [`Arc`]-backed buffer per
/// message, so every message clone (simnet hops, fault-injected duplicates,
/// delayed redelivery) bumps a reference count instead of deep-copying
/// the payload.
pub type Values = proteus_ps::Values<DenseVec>;

/// Everything that flows between AgileML nodes.
#[derive(Debug, Clone)]
pub enum AgileMsg {
    // ------------------------------------------------------------------
    // Membership & configuration (controller ↔ nodes)
    // ------------------------------------------------------------------
    /// A freshly booted node announces itself to the controller.
    Hello {
        /// The node's reliability class.
        class: NodeClass,
    },
    /// Controller → node: your current duties.
    Configure(Box<NodeAssignment>),
    /// Controller → everyone: a new topology snapshot.
    Topology(Arc<Topology>),
    /// Node → controller: configuration applied, data loaded, partitions
    /// installed; ready to serve/compute.
    Ready,
    /// Controller → everyone: begin (or resume) iterating.
    Start,
    /// Controller → node: exit the behavior loop (end of job).
    Stop,
    /// Node → controller: the provider delivered an eviction warning to
    /// this node (simnet `Control::EvictionWarning`). The controller
    /// treats it like a driver-issued `Command::EvictWarned` so warned
    /// nodes drain even when no driver relays the warning.
    EvictionNotice {
        /// Milliseconds the provider granted before termination.
        deadline_ms: u64,
    },

    // ------------------------------------------------------------------
    // Clocks
    // ------------------------------------------------------------------
    /// Worker → controller: finished iteration `clock`.
    ClockDone {
        /// The completed clock.
        clock: u64,
        /// The sender's recovery epoch; stale-epoch reports are dropped.
        epoch: u64,
    },
    /// Controller → everyone: the new minimum completed clock. Workers
    /// gate on it (SSP); ActivePSs use its advance as the push trigger.
    GlobalClock {
        /// Minimum clock across live workers.
        min: u64,
        /// Current recovery epoch; stale broadcasts are ignored.
        epoch: u64,
    },

    // ------------------------------------------------------------------
    // Data plane (worker ↔ serving PS)
    // ------------------------------------------------------------------
    /// Read a set of keys (compressed into strided runs; the per-owner
    /// key union under the modulo layout is near-arithmetic, so this is
    /// an O(runs) payload for an O(keys) request).
    ReadReq {
        /// Correlates the response with the request.
        token: u64,
        /// Keys to fetch.
        keys: KeySet,
    },
    /// Values for a `ReadReq` (missing keys omitted).
    ReadResp {
        /// Echo of the request token.
        token: u64,
        /// Fetched values.
        values: Values,
    },
    /// Apply coalesced updates to one partition.
    UpdateBatch {
        /// Destination partition.
        partition: PartitionId,
        /// Sender's clock at flush time.
        clock: u64,
        /// The sender's recovery epoch; stale-epoch batches are dropped
        /// so rolled-back iterations are not double-applied on redo.
        epoch: u64,
        /// Coalesced `(key, delta)` pairs.
        updates: Values,
    },

    // ------------------------------------------------------------------
    // Active → backup streaming, migration, recovery
    // ------------------------------------------------------------------
    /// ActivePS → BackupPS: coalesced deltas since the previous push.
    BackupPush {
        /// Partition the deltas belong to.
        partition: PartitionId,
        /// The global clock this push is aligned to.
        clock: u64,
        /// Coalesced deltas.
        deltas: Values,
        /// Final push before the sender ceases operation (paper's
        /// end-of-life flag).
        end_of_life: bool,
    },
    /// Install a full partition image (initialization, migration target,
    /// or recovery from backup).
    InstallPartition {
        /// The partition.
        partition: PartitionId,
        /// Its complete `(key, value)` contents.
        image: Values,
        /// Clock the image is consistent with.
        clock: u64,
    },
    /// Controller → current owner: send `partitions` to `to` (scale-up
    /// placement or pre-eviction migration). The owner flushes pending
    /// backup deltas first, then ships images, then forwards traffic
    /// until the topology flips.
    MigratePartitions {
        /// New owner.
        to: NodeId,
        /// Partitions to hand over.
        partitions: Vec<PartitionId>,
        /// Keep the handed-over state locally as a backup copy (used when
        /// a reliable ParamServ becomes the BackupPS of the partitions it
        /// gives to a new ActivePS in the stage 1→2 transition).
        retain_as_backup: bool,
    },
    /// Controller → evicted ActivePS: push all remaining deltas to the
    /// backups with the end-of-life flag and stop serving.
    DrainToBackup,
    /// Controller → BackupPS: roll partition states back to `clock` and
    /// send recovery images for `partitions` to `new_owner`.
    RecoverPartitions {
        /// Partitions to recover.
        partitions: Vec<PartitionId>,
        /// The new serving owner to send images to.
        new_owner: NodeId,
        /// The consistent clock to roll back to.
        clock: u64,
    },
    /// Controller → everyone after failure recovery: clear worker caches,
    /// resume from `clock`, and enter the new epoch.
    RestartFrom {
        /// The recovered consistent clock.
        clock: u64,
        /// The new recovery epoch.
        epoch: u64,
    },
    /// Controller → serving owner: ship full images of `partitions` to
    /// `to`, which becomes their fresh BackupPS (reliable-tier repair
    /// after a backup holder died). The owner folds its unpushed dirty
    /// deltas into the shipped image and resets its dirty tracking for
    /// those partitions, so subsequent backup pushes continue from the
    /// shipped baseline without double-applying.
    ReplicateBackup {
        /// Partitions to re-replicate.
        partitions: Vec<PartitionId>,
        /// The new backup owner.
        to: NodeId,
    },
    /// Controller → BackupPS: report the minimum clock to which your
    /// backed-up partitions are consistent (phase one of recovery).
    BackupClockQuery,
    /// BackupPS → controller: reply to [`AgileMsg::BackupClockQuery`].
    BackupClockInfo {
        /// Minimum last-push clock across backed-up partitions, or the
        /// current global clock when the node backs up nothing.
        min_clock: u64,
    },
    /// Request a serving-side image of `partition`; the owner replies
    /// with [`AgileMsg::InstallPartition`] to the sender (snapshots).
    ExportPartition {
        /// The partition to export.
        partition: PartitionId,
    },

    // ------------------------------------------------------------------
    // Harness interface
    // ------------------------------------------------------------------
    /// A command from the job driver (BidBrain or a test harness).
    Cmd(Command),
}

/// Controller → node: full description of the node's duties.
#[derive(Debug, Clone)]
pub struct NodeAssignment {
    /// Serve these partitions as the primary (`ParamServ` in stage 1,
    /// `ActivePS` in stages 2–3). Empty when the node serves nothing.
    pub serve_partitions: Vec<PartitionId>,
    /// Hold backup copies of these partitions (reliable nodes, stages
    /// 2–3).
    pub backup_partitions: Vec<PartitionId>,
    /// Whether backup streaming is expected from this node's served
    /// partitions (i.e. the node is an ActivePS rather than a ParamServ).
    pub is_active_ps: bool,
    /// Input-data blocks this node's worker processes; empty disables the
    /// worker (stage 3 reliable nodes, or pure server nodes).
    pub data_blocks: Vec<BlockId>,
    /// Partitions whose images will arrive via
    /// [`AgileMsg::InstallPartition`]; the node reports `Ready` only after
    /// all of them are installed.
    pub await_installs: Vec<PartitionId>,
    /// The topology snapshot current at assignment time.
    pub topology: Arc<Topology>,
    /// The worker clock to resume from (applied on this node's first
    /// configuration only; later reconfigurations keep the local clock).
    pub resume_clock: u64,
    /// The recovery epoch in force.
    pub epoch: u64,
}

/// Commands the harness/driver sends to the elasticity controller.
#[derive(Debug, Clone)]
pub enum Command {
    /// Integrate freshly spawned nodes (they will also send `Hello`).
    AddNodes {
        /// `(node, class)` pairs, already spawned in the cluster.
        nodes: Vec<(NodeId, NodeClass)>,
    },
    /// The provider issued an eviction warning for these nodes; drain and
    /// reconfigure within the warning window.
    EvictWarned {
        /// Doomed nodes.
        nodes: Vec<NodeId>,
    },
    /// The preemption forecaster expects these nodes to be evicted soon
    /// (no provider warning yet): demote their ActivePS partitions to
    /// safer hosts but keep the nodes working. A wrong forecast costs
    /// only the migration; the nodes stay members either way.
    PreDrain {
        /// Nodes forecast to disappear.
        nodes: Vec<NodeId>,
    },
    /// These nodes failed without (sufficient) warning and are already
    /// dead; run rollback recovery.
    NodesFailed {
        /// Failed nodes.
        nodes: Vec<NodeId>,
    },
    /// Report a full model snapshot (`Report::Snapshot`) once state is
    /// quiescent enough.
    Snapshot,
    /// Report controller status (`Report::Status`).
    Status,
    /// Stop all nodes gracefully and acknowledge (`Report::Stopping`).
    Shutdown,
}

/// What the controller hands back to the driver: job events as they
/// happen, and the answers to [`Command::Snapshot`], [`Command::Status`]
/// and [`Command::Shutdown`]. Reports are not network traffic — the
/// controller and the driver share a process — so they bypass the fault
/// layer and the traffic counters.
#[derive(Debug, Clone)]
pub enum Report {
    /// A job event, in the order the controller emitted it.
    Event(JobEvent),
    /// The model a [`Command::Snapshot`] asked for.
    Snapshot(ModelSnapshot),
    /// The status a [`Command::Status`] asked for.
    Status(JobStatus),
    /// Every member was told to stop; the controller is gone.
    Stopping,
}
