//! The elasticity controller (paper Sec. 3.2–3.3).
//!
//! A single controller per job — hosted on a reliable machine — tracks
//! which resources participate, assigns input data to workers, starts new
//! ActivePSs, selects the stage from the transient:reliable ratio, and
//! orchestrates scale-up, warned evictions, and failure recovery.
//!
//! The controller is a [`SimNode`] state machine over its simnet
//! traffic: node `Hello`/`Ready`/`ClockDone` messages, backup clock
//! reports, and harness [`Command`]s. What it has to tell the driver —
//! job events and the answers to status/snapshot/shutdown commands — it
//! appends to the job's `ReportSink`. Mutating commands are
//! serialized: while one elasticity action awaits `Ready`
//! acknowledgements, later commands queue.
//!
//! This module is the dispatch, the command queue and the few verbs
//! every transition is built from (`reconfigure`, `migrate`, `resume`,
//! `resync_worker_clocks`); the transitions themselves live one concern
//! to a file, and every placement decision they make is a method of
//! `layout::Layout`. DESIGN.md tabulates the transitions.

mod eviction;
mod layout;
mod membership;
mod recovery;
mod repair;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use proteus_mlapps::app::MlApp;
use proteus_ps::{ClockTable, DenseVec, ParamKey, PartitionId, PartitionMap};
use proteus_simnet::{Control, NodeId, SimCtx, SimNode};

use crate::config::AgileConfig;
use crate::error::JobFault;
use crate::events::{JobEvent, JobStatus};
use crate::job::{lock_reports, ModelSnapshot, ReportSink};
use crate::msg::{AgileMsg, Command, NodeAssignment, Report, Values};
use crate::stage::Stage;
use crate::topology::Topology;
use layout::{Awaits, Layout};
use recovery::Quorum;

/// Multi-step actions the controller may have in flight.
#[derive(Debug)]
enum Pending {
    /// Initial start: waiting for every member's `Ready`.
    StartJob,
    /// Node addition: waiting for the added nodes' `Hello`s
    /// (`configured: false`), then for configured nodes' `Ready`. The
    /// flag keeps a duplicated `Hello` from re-running integration.
    AddNodes {
        added: Vec<NodeId>,
        configured: bool,
    },
    /// Failure recovery phase 1: collecting backup clock reports.
    RecoveryQuery { failed: Vec<NodeId>, quorum: Quorum },
    /// Failure recovery phase 2: waiting for recovered owners' `Ready`.
    RecoveryInstall { failed: Vec<NodeId>, clock: u64 },
    /// In-job reliable-tier repair: waiting for the surviving reliable
    /// nodes receiving re-replicated backup partitions to report
    /// `Ready` (all fills installed).
    ReliableRepair { nodes: Vec<NodeId>, partitions: u64 },
}

/// In-flight snapshot collection.
struct SnapshotCollect {
    images: BTreeMap<PartitionId, Values>,
    expect: BTreeSet<PartitionId>,
}

/// The elasticity controller's state; a [`SimNode`] on the job's cluster.
pub(crate) struct Controller<A: MlApp> {
    cfg: AgileConfig,
    app: Arc<A>,
    keyspace: PartitionMap,
    layout: Layout,
    helloed: BTreeSet<NodeId>,

    clock: ClockTable,
    epoch: u64,
    started: bool,
    last_min_broadcast: u64,
    topo_version: u64,

    pending: Option<Pending>,
    pending_ready: BTreeSet<NodeId>,
    queued: VecDeque<Command>,
    snapshot: Option<SnapshotCollect>,
    /// Partition migrations ordered but not yet acknowledged:
    /// source → `(destination, partitions)` batches. A source that dies
    /// with an entry here may have taken the only serving copy with it,
    /// so its failure must trigger full rollback recovery even if the
    /// source was already removed from membership (eviction in flight).
    migrations: BTreeMap<NodeId, Vec<(NodeId, Vec<PartitionId>)>>,
    /// Backup re-replications in flight after a reliable-tier loss:
    /// partition → `(serving source, new backup destination)`. While an
    /// entry exists the destination holds no usable copy yet; if the
    /// source dies first the partition's only surviving state is gone
    /// and the job must restart from an external checkpoint. Entries
    /// clear when the destination reports `Ready`.
    filling: BTreeMap<PartitionId, (NodeId, NodeId)>,
    /// Parameter values to start from (checkpoint restore); `None`
    /// means fresh random initialization.
    initial_model: Option<BTreeMap<ParamKey, DenseVec>>,

    reports: ReportSink,
}

impl<A: MlApp> Controller<A> {
    pub(crate) fn new(
        cfg: AgileConfig,
        app: Arc<A>,
        reports: ReportSink,
        checkpoint: Option<ModelSnapshot>,
    ) -> Self {
        // `AgileConfig::validate` rejects zero partitions before any
        // controller is spawned.
        #[allow(clippy::expect_used)]
        let keyspace = PartitionMap::new(cfg.partitions).expect("validated config");

        // Restarting from a checkpoint resumes the consistent clock and
        // epoch the snapshot captured: workers register at that clock,
        // so progress (and the obs timeline) never time-travels back to
        // zero across a session restart.
        let (initial_model, resume_clock, resume_epoch) = match checkpoint {
            Some(snap) => (Some(snap.params), snap.clock, snap.epoch),
            None => (None, 0, 0),
        };
        Controller {
            cfg,
            app,
            keyspace,
            layout: Layout::new(cfg),
            helloed: BTreeSet::new(),
            clock: ClockTable::default(),
            epoch: resume_epoch,
            started: false,
            last_min_broadcast: resume_clock,
            topo_version: 0,
            pending: None,
            pending_ready: BTreeSet::new(),
            queued: VecDeque::new(),
            snapshot: None,
            migrations: BTreeMap::new(),
            filling: BTreeMap::new(),
            initial_model,
            reports,
        }
    }

    // ------------------------------------------------------------------
    // Reporting and the verbs every transition is built from
    // ------------------------------------------------------------------

    fn report(&self, report: Report) {
        lock_reports(&self.reports).push_back(report);
    }

    fn emit(&self, ev: JobEvent) {
        self.report(Report::Event(ev));
    }

    fn fault(&self, fault: JobFault) {
        self.emit(JobEvent::Faulted { fault });
    }

    fn report_lost(&self, lost: Vec<PartitionId>) {
        for p in lost {
            self.fault(JobFault::PartitionStateLost { partition: p.0 });
        }
    }

    fn note_stage_change(&self, from: Stage) {
        let to = self.layout.stage;
        if from != to {
            self.emit(JobEvent::StageChanged { from, to });
        }
    }

    fn broadcast(&self, ctx: &mut SimCtx<'_, AgileMsg>, msg: &AgileMsg) {
        for n in self.layout.members.keys() {
            let _ = ctx.send(*n, msg.clone());
        }
    }

    fn next_topology(&mut self) -> Arc<Topology> {
        self.topo_version += 1;
        Arc::new(self.layout.topology(self.topo_version))
    }

    /// Tells every member its duties under the current layout, as a new
    /// topology version. `awaits` names the partition images in flight
    /// to each: the recipient buffers their updates, defers their
    /// exports and holds its `Ready` until they land.
    fn reconfigure(&mut self, ctx: &mut SimCtx<'_, AgileMsg>, awaits: &Awaits) -> Arc<Topology> {
        let topo = self.next_topology();
        for n in self.layout.members.keys() {
            let assign = NodeAssignment {
                serve_partitions: self.layout.owned_by(*n),
                backup_partitions: self.layout.backed_by(*n),
                is_active_ps: self.layout.is_active_ps(*n),
                data_blocks: self.layout.blocks_of(*n),
                await_installs: awaits.get(n).cloned().unwrap_or_default(),
                topology: Arc::clone(&topo),
                resume_clock: self.last_min_broadcast,
                epoch: self.epoch,
            };
            let _ = ctx.send(*n, AgileMsg::Configure(Box::new(assign)));
        }
        topo
    }

    /// Flips every member to `topo` and lets the workers iterate.
    fn resume(&self, ctx: &mut SimCtx<'_, AgileMsg>, topo: Arc<Topology>) {
        self.broadcast(ctx, &AgileMsg::Topology(topo));
        self.broadcast(ctx, &AgileMsg::Start);
    }

    /// Orders `from` to ship `parts` (which the layout already gives
    /// to `to`) and tracks the images until `to` reports `Ready`.
    fn migrate(
        &mut self,
        ctx: &mut SimCtx<'_, AgileMsg>,
        (from, to): (NodeId, NodeId),
        parts: Vec<PartitionId>,
        retain_as_backup: bool,
        awaits: &mut Awaits,
    ) {
        let _ = ctx.send(
            from,
            AgileMsg::MigratePartitions {
                to,
                partitions: parts.clone(),
                retain_as_backup,
            },
        );
        awaits.entry(to).or_default().extend(&parts);
        self.migrations.entry(from).or_default().push((to, parts));
    }

    /// Brings the clock table in line with the layout's worker set:
    /// workers (re-)register at the broadcast floor — never at zero, so
    /// a stage flip or a rejoin cannot regress the consistent clock —
    /// and everyone else is deregistered, as is a corpse awaiting its
    /// queued `NodesFailed`, which would pin the minimum forever.
    fn resync_worker_clocks(&mut self) {
        let workers: BTreeSet<NodeId> =
            (self.layout.workers(self.layout.stage).into_iter()).collect();
        for n in self.layout.members.keys() {
            if workers.contains(n) && !self.layout.known_dead.contains(n) {
                self.clock.register_at(n.0, self.last_min_broadcast);
            } else {
                self.clock.deregister(n.0);
            }
        }
    }

    /// Removes `nodes` from the job: roster, `Hello` record and clock.
    fn drop_members(&mut self, nodes: &[NodeId]) {
        self.layout.remove(nodes);
        self.helloed.retain(|n| !nodes.contains(n));
        for n in nodes {
            self.clock.deregister(n.0);
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Handles one message; returns `false` to stop the controller.
    fn handle(&mut self, from: NodeId, msg: AgileMsg, ctx: &mut SimCtx<'_, AgileMsg>) -> bool {
        match msg {
            AgileMsg::Hello { class } => {
                self.helloed.insert(from);
                // Classes must agree with what the driver announced.
                debug_assert!(self.layout.members.get(&from).is_none_or(|c| *c == class));
                self.try_progress_membership(ctx);
            }
            AgileMsg::Ready => {
                self.pending_ready.remove(&from);
                // Migrations into this node have landed (Ready is sent
                // only after all awaited installs arrive, and per-sender
                // FIFO orders it after the last install's relay chain).
                for batches in self.migrations.values_mut() {
                    batches.retain(|(dest, _)| *dest != from);
                }
                self.migrations.retain(|_, batches| !batches.is_empty());
                // Backup fills into this node have landed too (same
                // `Ready`-after-installs argument).
                self.filling.retain(|_, (_, dst)| *dst != from);
                self.try_finish_pending(ctx);
            }
            // A node relayed the provider's warning directly. Route it
            // through the command path so it queues behind any in-flight
            // action exactly like a driver-issued warning.
            AgileMsg::EvictionNotice { .. } if self.layout.members.contains_key(&from) => {
                return self.handle_command(Command::EvictWarned { nodes: vec![from] }, ctx);
            }
            AgileMsg::EvictionNotice { .. } => {}
            AgileMsg::ClockDone { clock, epoch } => {
                if epoch != self.epoch {
                    return true;
                }
                self.clock.advance(from.0, clock);
                self.maybe_broadcast_min(ctx);
            }
            AgileMsg::BackupClockInfo { min_clock } => {
                self.on_backup_clock_info(from, min_clock, ctx);
            }
            AgileMsg::InstallPartition {
                partition, image, ..
            } => {
                // Snapshot collection replies land here.
                if let Some(snap) = self.snapshot.as_mut() {
                    if snap.expect.remove(&partition) {
                        snap.images.insert(partition, image);
                    }
                }
                self.finish_snapshot_if_complete(ctx);
            }
            AgileMsg::Cmd(cmd) => return self.handle_command(cmd, ctx),
            // Data-plane traffic never targets the controller.
            _ => {}
        }
        true
    }

    fn busy(&self) -> bool {
        self.pending.is_some() || self.snapshot.is_some()
    }

    fn handle_command(&mut self, cmd: Command, ctx: &mut SimCtx<'_, AgileMsg>) -> bool {
        match cmd {
            Command::Status => {
                self.report(Report::Status(JobStatus {
                    stage: self.layout.stage,
                    reliable: self.layout.reliable().len(),
                    transient: self.layout.transient().len(),
                    active_ps: if self.layout.stage.uses_backups() {
                        self.layout.active_hosts.len()
                    } else {
                        0
                    },
                    workers: self.clock.worker_count(),
                    min_clock: self.clock.min_clock().unwrap_or(0),
                }));
            }
            Command::Shutdown => {
                self.broadcast(ctx, &AgileMsg::Stop);
                self.report(Report::Stopping);
                return false;
            }
            Command::NodesFailed { nodes } if self.busy() => {
                // The dead nodes can no longer acknowledge anything the
                // in-flight action is waiting on — strip them from its
                // expectations, or the queued recovery never runs. Queue
                // first: unwedging the pending action drains the queue.
                self.queued.push_back(Command::NodesFailed {
                    nodes: nodes.clone(),
                });
                self.note_dead_during_pending(&nodes, ctx);
            }
            cmd if self.busy() => self.queued.push_back(cmd),
            Command::AddNodes { nodes } => {
                for (n, class) in &nodes {
                    self.layout.join(*n, *class);
                }
                self.pending = Some(if self.started {
                    Pending::AddNodes {
                        added: nodes.iter().map(|(n, _)| *n).collect(),
                        configured: false,
                    }
                } else {
                    Pending::StartJob
                });
                self.try_progress_membership(ctx);
            }
            Command::EvictWarned { nodes } => self.handle_eviction(nodes, ctx),
            Command::PreDrain { nodes } => self.handle_predrain(nodes, ctx),
            Command::NodesFailed { nodes } => self.handle_failure(nodes, ctx),
            Command::Snapshot => {
                let mut snap = SnapshotCollect {
                    images: BTreeMap::new(),
                    expect: self.keyspace.partitions().collect(),
                };
                for p in self.keyspace.partitions() {
                    let owner = self.layout.partition_owner[p.0 as usize];
                    if ctx
                        .send(owner, AgileMsg::ExportPartition { partition: p })
                        .is_err()
                    {
                        // Owner died mid-request: deliver what we can.
                        snap.expect.remove(&p);
                    }
                }
                self.snapshot = Some(snap);
                self.finish_snapshot_if_complete(ctx);
            }
        }
        true
    }

    fn drain_queue(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        while !self.busy() {
            let Some(cmd) = self.queued.pop_front() else {
                break;
            };
            if !self.handle_command(cmd, ctx) {
                break;
            }
        }
    }

    /// Delivers an in-flight snapshot once every expected partition
    /// image arrived (or its expectation was stripped because the owner
    /// died), then resumes queued commands.
    fn finish_snapshot_if_complete(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        let Some(snap) = self.snapshot.take_if(|snap| snap.expect.is_empty()) else {
            return;
        };
        self.report(Report::Snapshot(ModelSnapshot {
            params: snap.images.into_values().flatten().collect(),
            clock: self.clock.min_clock().unwrap_or(self.last_min_broadcast),
            epoch: self.epoch,
            stage: self.layout.stage,
        }));
        self.drain_queue(ctx);
    }

    fn maybe_broadcast_min(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        if let Some(min) = self.clock.min_clock() {
            if min > self.last_min_broadcast {
                self.last_min_broadcast = min;
                self.broadcast(
                    ctx,
                    &AgileMsg::GlobalClock {
                        min,
                        epoch: self.epoch,
                    },
                );
                self.emit(JobEvent::ClockAdvanced { min });
            }
        }
    }

    /// Completes the pending action once every `Ready` it waits for is
    /// in, then resumes queued commands.
    fn try_finish_pending(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        if !self.pending_ready.is_empty() {
            return;
        }
        match self.pending.take() {
            Some(Pending::StartJob) => {
                self.started = true;
                let topo = self.next_topology();
                self.resume(ctx, topo);
                self.broadcast(
                    ctx,
                    &AgileMsg::GlobalClock {
                        min: self.last_min_broadcast,
                        epoch: self.epoch,
                    },
                );
                self.emit(JobEvent::Started {
                    nodes: self.layout.members.len(),
                });
            }
            Some(Pending::AddNodes { added, .. }) => return self.finish_add(added, ctx),
            Some(Pending::RecoveryInstall { failed, clock }) => {
                self.broadcast(ctx, &AgileMsg::Start);
                self.broadcast(
                    ctx,
                    &AgileMsg::GlobalClock {
                        min: clock,
                        epoch: self.epoch,
                    },
                );
                self.emit(JobEvent::NodesFailedRecovered {
                    nodes: failed,
                    rolled_back_to: clock,
                });
            }
            Some(Pending::ReliableRepair { nodes, partitions }) => {
                self.emit(JobEvent::ReliableRepaired { nodes, partitions });
            }
            other => {
                self.pending = other;
                return;
            }
        }
        self.drain_queue(ctx);
    }
}

impl<A: MlApp> SimNode<AgileMsg> for Controller<A> {
    fn on_message(&mut self, ctx: &mut SimCtx<'_, AgileMsg>, from: NodeId, msg: AgileMsg) {
        if !self.handle(from, msg, ctx) {
            ctx.stop();
        }
    }

    /// The controller host has no drain protocol of its own: a shutdown
    /// request or a provider warning simply ends it.
    fn on_control(&mut self, ctx: &mut SimCtx<'_, AgileMsg>, _ctrl: Control) {
        ctx.stop();
    }
}
