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
//! appends to the job's [`ReportSink`]. Mutating commands are
//! serialized: while one elasticity action awaits `Ready`
//! acknowledgements, later commands queue.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use proteus_mlapps::app::MlApp;
use proteus_ps::{ClockTable, DenseVec, ParamKey, PartitionId, PartitionMap};
use proteus_simnet::{Control, NodeClass, NodeId, SimCtx, SimNode};
use proteus_simtime::rng::seeded_stream;

use crate::config::AgileConfig;
use crate::error::JobFault;
use crate::events::{JobEvent, JobStatus};
use crate::job::{lock_reports, ModelSnapshot, ReportSink};
use crate::msg::{AgileMsg, Command, NodeAssignment, Report, Values};
use crate::stage::{select_stage, Stage};
use crate::topology::{DataAssignment, Topology};

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
    RecoveryQuery {
        failed: Vec<NodeId>,
        replies: BTreeMap<NodeId, u64>,
        expect: BTreeSet<NodeId>,
    },
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
    layout: PartitionMap,

    members: BTreeMap<NodeId, NodeClass>,
    join_order: Vec<NodeId>,
    helloed: BTreeSet<NodeId>,

    clock: ClockTable,
    epoch: u64,
    started: bool,
    last_min_broadcast: u64,

    stage: Stage,
    topo_version: u64,
    partition_owner: Vec<NodeId>,
    backup_owner: Vec<Option<NodeId>>,
    active_hosts: BTreeSet<NodeId>,
    assignment: Option<DataAssignment>,

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
    /// Nodes reported dead while another action was pending. Their
    /// `NodesFailed` sits in the command queue, but until it runs no new
    /// pending action may count on them (as a `Ready` sender, a new
    /// partition owner, or a clock participant) — a recovery that waits
    /// on a corpse never finishes. Cleared when the queued report runs.
    known_dead: BTreeSet<NodeId>,
    /// Parameter values to start from (checkpoint restore); `None`
    /// means fresh random initialization.
    initial_model: Option<BTreeMap<ParamKey, DenseVec>>,

    reports: ReportSink,
    /// Protocol tracing via [`JobEvent::Trace`], enabled by `AGILE_DEBUG=1`.
    debug: bool,
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
        let layout = PartitionMap::new(cfg.partitions).expect("validated config");

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
            layout,
            members: BTreeMap::new(),
            join_order: Vec::new(),
            helloed: BTreeSet::new(),
            clock: ClockTable::new(cfg.slack),
            epoch: resume_epoch,
            started: false,
            last_min_broadcast: resume_clock,
            stage: Stage::Stage1,
            topo_version: 0,
            partition_owner: Vec::new(),
            backup_owner: Vec::new(),
            active_hosts: BTreeSet::new(),
            assignment: None,
            pending: None,
            pending_ready: BTreeSet::new(),
            queued: VecDeque::new(),
            snapshot: None,
            migrations: BTreeMap::new(),
            filling: BTreeMap::new(),
            known_dead: BTreeSet::new(),
            initial_model,
            reports,
            debug: std::env::var_os("AGILE_DEBUG").is_some(),
        }
    }

    fn dbg(&self, make: impl FnOnce() -> String) {
        if self.debug {
            self.emit(JobEvent::Trace { msg: make() });
        }
    }

    // ------------------------------------------------------------------
    // Membership helpers
    // ------------------------------------------------------------------

    fn reliable(&self) -> Vec<NodeId> {
        self.join_order
            .iter()
            .filter(|n| self.members.get(n) == Some(&NodeClass::Reliable))
            .copied()
            .collect()
    }

    fn transient(&self) -> Vec<NodeId> {
        self.join_order
            .iter()
            .filter(|n| self.members.get(n) == Some(&NodeClass::Transient))
            .copied()
            .collect()
    }

    /// Worker nodes under `stage`: transient always, reliable unless
    /// stage 3.
    fn worker_nodes(&self, stage: Stage) -> Vec<NodeId> {
        self.join_order
            .iter()
            .filter(|n| match self.members.get(n) {
                Some(NodeClass::Transient) => true,
                Some(NodeClass::Reliable) => stage.workers_on_reliable(),
                None => false,
            })
            .copied()
            .collect()
    }

    fn pick_stage(&self) -> Stage {
        if let Some(forced) = self.cfg.force_stage {
            return forced;
        }
        select_stage(
            self.transient().len(),
            self.reliable().len(),
            self.cfg.stage2_threshold,
            self.cfg.stage3_threshold,
        )
    }

    /// Target number of ActivePS hosts for the current transient pool.
    fn target_active_count(&self) -> usize {
        let t = self.transient().len();
        ((t as f64 * self.cfg.activeps_fraction).ceil() as usize)
            .clamp(usize::from(t > 0), t.max(1))
    }

    /// Extends `active_hosts` to the target count, preferring the
    /// longest-running transient nodes without an ActivePS (paper
    /// Sec. 3.3). Never shrinks the set.
    fn grow_active_hosts(&mut self) {
        let target = self.target_active_count();
        let transient = self.transient();
        self.active_hosts.retain(|n| self.members.contains_key(n));
        for n in &transient {
            if self.active_hosts.len() >= target {
                break;
            }
            self.active_hosts.insert(*n);
        }
    }

    /// Round-robin partition→owner map over `owners` (sorted by join
    /// order for stability).
    fn round_robin_owners(&self, owners: &[NodeId]) -> Vec<NodeId> {
        assert!(!owners.is_empty(), "cannot place partitions on zero nodes");
        (0..self.layout.count())
            .map(|p| owners[(p as usize) % owners.len()])
            .collect()
    }

    fn topology(&self, stage: Stage) -> Arc<Topology> {
        Arc::new(Topology {
            version: self.topo_version,
            stage,
            partition_owner: self.partition_owner.clone(),
            backup_owner: self.backup_owner.clone(),
            workers: self.worker_nodes(stage),
        })
    }

    fn broadcast(&self, ctx: &mut SimCtx<'_, AgileMsg>, msg: &AgileMsg) {
        for n in self.members.keys() {
            let _ = ctx.send(*n, msg.clone());
        }
    }

    fn report(&self, report: Report) {
        lock_reports(&self.reports).push_back(report);
    }

    fn emit(&self, ev: JobEvent) {
        self.report(Report::Event(ev));
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
                debug_assert!(self.members.get(&from).is_none_or(|c| *c == class));
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
                self.dbg(|| format!("Ready from {from:?}, remaining {:?}", self.pending_ready));
                self.try_finish_pending(ctx);
            }
            // A node relayed the provider's warning directly. Route it
            // through the command path so it queues behind any in-flight
            // action exactly like a driver-issued warning.
            AgileMsg::EvictionNotice { .. } if self.members.contains_key(&from) => {
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
                    stage: self.stage,
                    reliable: self.reliable().len(),
                    transient: self.transient().len(),
                    active_ps: if self.stage.uses_backups() {
                        self.active_hosts.len()
                    } else {
                        0
                    },
                    workers: self.clock.worker_count(),
                    min_clock: self.clock.min_clock().unwrap_or(0),
                }));
                true
            }
            Command::Shutdown => {
                for n in self.members.keys() {
                    let _ = ctx.send(*n, AgileMsg::Stop);
                }
                self.report(Report::Stopping);
                false
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
                true
            }
            cmd if self.busy() => {
                self.dbg(|| {
                    format!(
                        "queueing {cmd:?} behind pending={:?} ready={:?} snapshot={}",
                        self.pending,
                        self.pending_ready,
                        self.snapshot.is_some()
                    )
                });
                self.queued.push_back(cmd);
                true
            }
            Command::AddNodes { nodes } => {
                for (n, class) in &nodes {
                    if self.members.insert(*n, *class).is_none() {
                        self.join_order.push(*n);
                    }
                }
                if !self.started {
                    self.pending = Some(Pending::StartJob);
                } else {
                    self.pending = Some(Pending::AddNodes {
                        added: nodes.iter().map(|(n, _)| *n).collect(),
                        configured: false,
                    });
                }
                self.try_progress_membership(ctx);
                true
            }
            Command::EvictWarned { nodes } => {
                self.dbg(|| format!("EvictWarned {nodes:?}"));
                self.handle_eviction(nodes, ctx);
                true
            }
            Command::PreDrain { nodes } => {
                self.dbg(|| format!("PreDrain {nodes:?}"));
                self.handle_predrain(nodes, ctx);
                true
            }
            Command::NodesFailed { nodes } => {
                self.handle_failure(nodes, ctx);
                true
            }
            Command::Snapshot => {
                let expect: BTreeSet<PartitionId> = self.layout.partitions().collect();
                let mut snap = SnapshotCollect {
                    images: BTreeMap::new(),
                    expect,
                };
                for p in self.layout.partitions() {
                    let owner = self.partition_owner[p.0 as usize];
                    if ctx
                        .send(owner, AgileMsg::ExportPartition { partition: p })
                        .is_err()
                    {
                        // Owner died mid-request: deliver what we can.
                        snap.expect.remove(&p);
                    }
                }
                if snap.expect.is_empty() {
                    self.report(Report::Snapshot(ModelSnapshot {
                        params: BTreeMap::new(),
                        clock: self.clock.min_clock().unwrap_or(self.last_min_broadcast),
                        epoch: self.epoch,
                        stage: self.stage,
                    }));
                } else {
                    self.snapshot = Some(snap);
                }
                true
            }
        }
    }

    fn drain_queue(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        while !self.busy() {
            match self.queued.pop_front() {
                Some(cmd) => {
                    if !self.handle_command(cmd, ctx) {
                        break;
                    }
                }
                None => break,
            }
        }
    }

    /// Delivers an in-flight snapshot once every expected partition
    /// image arrived (or its expectation was stripped because the owner
    /// died), then resumes queued commands.
    fn finish_snapshot_if_complete(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        if !self
            .snapshot
            .as_ref()
            .is_some_and(|snap| snap.expect.is_empty())
        {
            return;
        }
        // The `is_some_and` guard above returns early unless a snapshot
        // is present and complete.
        #[allow(clippy::expect_used)]
        let snap = self.snapshot.take().expect("checked above");
        let mut params = BTreeMap::new();
        for (_, image) in snap.images {
            for (k, v) in image {
                params.insert(k, v);
            }
        }
        self.report(Report::Snapshot(ModelSnapshot {
            params,
            clock: self.clock.min_clock().unwrap_or(self.last_min_broadcast),
            epoch: self.epoch,
            stage: self.stage,
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

    // ------------------------------------------------------------------
    // Initial start & node addition
    // ------------------------------------------------------------------

    /// Runs whenever membership knowledge changes: begins the initial
    /// layout or integrates added nodes once all expected `Hello`s are in.
    fn try_progress_membership(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        match &self.pending {
            Some(Pending::StartJob)
                if self.members.keys().all(|n| self.helloed.contains(n))
                    && !self.members.is_empty() =>
            {
                self.initial_layout(ctx);
            }
            Some(Pending::AddNodes {
                added,
                configured: false,
            }) => {
                let added = added.clone();
                if added.iter().all(|n| self.helloed.contains(n)) {
                    self.integrate_nodes(&added, ctx);
                }
            }
            _ => {}
        }
    }

    /// Computes the first layout, configures every member, and installs
    /// the initial parameter images.
    fn initial_layout(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        let stage = self.pick_stage();
        self.stage = stage;
        let reliable = self.reliable();
        assert!(
            !reliable.is_empty(),
            "AgileML requires at least one reliable node to hold solution state"
        );
        if stage.uses_backups() {
            self.grow_active_hosts();
            let actives: Vec<NodeId> = self
                .join_order
                .iter()
                .filter(|n| self.active_hosts.contains(n))
                .copied()
                .collect();
            self.partition_owner = self.round_robin_owners(&actives);
            self.backup_owner = self
                .round_robin_owners(&reliable)
                .into_iter()
                .map(Some)
                .collect();
        } else {
            self.partition_owner = self.round_robin_owners(&reliable);
            self.backup_owner = vec![None; self.layout.count() as usize];
        }
        let workers = self.worker_nodes(stage);
        self.assignment = DataAssignment::new(self.cfg.data_blocks, &workers);
        self.topo_version += 1;

        // Configure every member; all state arrives via installs. The
        // resume clock is zero on a fresh start and the checkpoint's
        // consistent clock on a restart-from-checkpoint.
        let resume = self.last_min_broadcast;
        let topo = self.topology(stage);
        self.pending_ready.clear();
        for n in self.members.keys().copied().collect::<Vec<_>>() {
            let serve = self.owned_by(n);
            let backup = self.backed_by(n);
            let blocks = self
                .assignment
                .as_ref()
                .map(|a| a.blocks_of(n))
                .unwrap_or_default();
            let await_installs: Vec<PartitionId> =
                serve.iter().chain(backup.iter()).copied().collect();
            let assign = NodeAssignment {
                serve_partitions: serve,
                backup_partitions: backup,
                is_active_ps: stage.uses_backups() && self.active_hosts.contains(&n),
                data_blocks: blocks,
                await_installs,
                topology: Arc::clone(&topo),
                resume_clock: resume,
                epoch: self.epoch,
            };
            let _ = ctx.send(n, AgileMsg::Configure(Box::new(assign)));
            self.pending_ready.insert(n);
        }

        // Generate and ship the initial parameter images.
        let images = self.initial_images();
        for (p, image) in images {
            let owner = self.partition_owner[p.0 as usize];
            let _ = ctx.send(
                owner,
                AgileMsg::InstallPartition {
                    partition: p,
                    image: image.clone(),
                    clock: resume,
                },
            );
            if let Some(backup) = self.backup_owner[p.0 as usize] {
                let _ = ctx.send(
                    backup,
                    AgileMsg::InstallPartition {
                        partition: p,
                        image,
                        clock: resume,
                    },
                );
            }
        }
        // Register workers at the resume clock (zero on a fresh start).
        for w in &workers {
            self.clock.register_at(w.0, resume);
        }
    }

    /// Initial parameter values grouped by partition: the restored
    /// checkpoint when one was provided (the paper's Sec. 3.3
    /// reliable-resource checkpointing), the app's random initialization
    /// otherwise. Keys absent from a checkpoint fall back to the
    /// initializer so model-shape growth stays possible.
    fn initial_images(&self) -> BTreeMap<PartitionId, Values> {
        let mut rng = seeded_stream(self.cfg.seed, 0x1217);
        let mut images: BTreeMap<PartitionId, Values> = BTreeMap::new();
        for k in 0..self.app.key_count() {
            let key = ParamKey(k);
            let value: DenseVec = self
                .initial_model
                .as_ref()
                .and_then(|m| m.get(&key).cloned())
                .unwrap_or_else(|| self.app.init_value(key, &mut rng));
            let p = self.layout.partition_of(key);
            images.entry(p).or_default().push((key, value));
        }
        images
    }

    fn owned_by(&self, n: NodeId) -> Vec<PartitionId> {
        self.partition_owner
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == n)
            .map(|(i, _)| PartitionId(i as u32))
            .collect()
    }

    fn backed_by(&self, n: NodeId) -> Vec<PartitionId> {
        self.backup_owner
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == Some(n))
            .map(|(i, _)| PartitionId(i as u32))
            .collect()
    }

    /// Integrates added nodes into a running job: stage recheck, ActivePS
    /// placement with migrations, data rebalance, reconfiguration.
    fn integrate_nodes(&mut self, added: &[NodeId], ctx: &mut SimCtx<'_, AgileMsg>) {
        let old_stage = self.stage;
        let old_owner = self.partition_owner.clone();
        let new_stage = self.pick_stage();
        let reliable = self.reliable();

        if new_stage.uses_backups() {
            self.grow_active_hosts();
            let actives: Vec<NodeId> = self
                .join_order
                .iter()
                .filter(|n| self.active_hosts.contains(n))
                .copied()
                .collect();
            self.partition_owner = self.round_robin_owners(&actives);
            self.backup_owner = self
                .round_robin_owners(&reliable)
                .into_iter()
                .map(Some)
                .collect();
        } else {
            self.partition_owner = self.round_robin_owners(&reliable);
            self.backup_owner = vec![None; self.layout.count() as usize];
        }

        // Data rebalance across the new worker set.
        let workers = self.worker_nodes(new_stage);
        match self.assignment.as_mut() {
            Some(a) => {
                a.rebalance(&workers);
            }
            None => self.assignment = DataAssignment::new(self.cfg.data_blocks, &workers),
        }

        self.stage = new_stage;
        self.topo_version += 1;
        let topo = self.topology(new_stage);
        let resume = self.last_min_broadcast;

        // Issue migrations for partitions whose owner changed.
        let mut moves: BTreeMap<(NodeId, NodeId), Vec<PartitionId>> = BTreeMap::new();
        for (i, (old, new)) in old_owner
            .iter()
            .zip(self.partition_owner.iter())
            .enumerate()
        {
            if old != new {
                moves
                    .entry((*old, *new))
                    .or_default()
                    .push(PartitionId(i as u32));
            }
        }
        let mut awaits: BTreeMap<NodeId, Vec<PartitionId>> = BTreeMap::new();
        for ((old, new), parts) in &moves {
            // A reliable old owner handing partitions to a new ActivePS
            // retains them as the backup copy (stage 1→2 transition).
            let retain =
                self.members.get(old) == Some(&NodeClass::Reliable) && new_stage.uses_backups();
            let _ = ctx.send(
                *old,
                AgileMsg::MigratePartitions {
                    to: *new,
                    partitions: parts.clone(),
                    retain_as_backup: retain,
                },
            );
            self.migrations
                .entry(*old)
                .or_default()
                .push((*new, parts.clone()));
            awaits
                .entry(*new)
                .or_default()
                .extend(parts.iter().copied());
        }

        // Reconfigure every member with its new duties.
        self.pending_ready.clear();
        for n in self.members.keys().copied().collect::<Vec<_>>() {
            let serve = self.owned_by(n);
            let backup = self.backed_by(n);
            let blocks = self
                .assignment
                .as_ref()
                .map(|a| a.blocks_of(n))
                .unwrap_or_default();
            let await_installs = awaits.get(&n).cloned().unwrap_or_default();
            if !await_installs.is_empty() || added.contains(&n) {
                self.pending_ready.insert(n);
            }
            let assign = NodeAssignment {
                serve_partitions: serve,
                backup_partitions: backup,
                is_active_ps: new_stage.uses_backups() && self.active_hosts.contains(&n),
                data_blocks: blocks,
                await_installs,
                topology: Arc::clone(&topo),
                resume_clock: resume,
                epoch: self.epoch,
            };
            let _ = ctx.send(n, AgileMsg::Configure(Box::new(assign)));
        }

        if old_stage != new_stage {
            self.emit(JobEvent::StageChanged {
                from: old_stage,
                to: new_stage,
            });
        }
        // Register new workers (and deregister reliable ones on 2→3).
        // `register_at` keeps a rejoining worker from dragging the
        // consistent clock back to zero.
        for w in &workers {
            self.clock.register_at(w.0, resume);
        }
        let worker_set: BTreeSet<NodeId> = workers.iter().copied().collect();
        let registered: Vec<u32> = self
            .members
            .keys()
            .filter(|n| !worker_set.contains(n))
            .map(|n| n.0)
            .collect();
        for w in registered {
            self.clock.deregister(w);
        }
        self.maybe_broadcast_min(ctx);

        self.dbg(|| {
            format!(
                "integrate_nodes {added:?}: pending_ready={:?}",
                self.pending_ready
            )
        });
        if self.pending_ready.is_empty() {
            self.finish_add(added.to_vec(), ctx);
        } else {
            self.pending = Some(Pending::AddNodes {
                added: added.to_vec(),
                configured: true,
            });
        }
    }

    fn finish_add(&mut self, added: Vec<NodeId>, ctx: &mut SimCtx<'_, AgileMsg>) {
        self.pending = None;
        self.topo_version += 1;
        let topo = self.topology(self.stage);
        self.broadcast(ctx, &AgileMsg::Topology(topo));
        self.broadcast(ctx, &AgileMsg::Start);
        self.emit(JobEvent::NodesAdded { nodes: added });
        self.drain_queue(ctx);
    }

    fn try_finish_pending(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        if !self.pending_ready.is_empty() {
            return;
        }
        match self.pending.take() {
            Some(Pending::StartJob) => {
                self.started = true;
                self.topo_version += 1;
                let topo = self.topology(self.stage);
                self.broadcast(ctx, &AgileMsg::Topology(topo));
                self.broadcast(ctx, &AgileMsg::Start);
                self.broadcast(
                    ctx,
                    &AgileMsg::GlobalClock {
                        min: self.last_min_broadcast,
                        epoch: self.epoch,
                    },
                );
                self.emit(JobEvent::Started {
                    nodes: self.members.len(),
                });
                self.drain_queue(ctx);
            }
            Some(Pending::AddNodes { added, .. }) => self.finish_add(added, ctx),
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
                self.drain_queue(ctx);
            }
            Some(Pending::ReliableRepair { nodes, partitions }) => {
                self.emit(JobEvent::ReliableRepaired { nodes, partitions });
                self.drain_queue(ctx);
            }
            other => self.pending = other,
        }
    }

    // ------------------------------------------------------------------
    // Eviction (warned) path
    // ------------------------------------------------------------------

    fn handle_eviction(&mut self, nodes: Vec<NodeId>, ctx: &mut SimCtx<'_, AgileMsg>) {
        let (victims, reliable_victims): (Vec<NodeId>, Vec<NodeId>) = nodes
            .into_iter()
            .filter(|n| self.members.contains_key(n))
            .partition(|n| self.members.get(n) == Some(&NodeClass::Transient));
        // Warned reliable victims drain through the in-job repair path
        // when surviving reliable capacity can absorb their state:
        // serving partitions migrate, backup partitions re-replicate,
        // no restart needed. When no survivor can take the state (or a
        // victim is mid-protocol), refuse with a typed fault — the
        // session treats it as a restart-from-checkpoint trigger.
        let mut drained_reliable: Vec<NodeId> = Vec::new();
        if !reliable_victims.is_empty() {
            if self.reliable_drainable(&reliable_victims, &victims) {
                drained_reliable = reliable_victims;
            } else {
                self.emit(JobEvent::Faulted {
                    fault: JobFault::ReliableNodesEvicted {
                        nodes: reliable_victims,
                    },
                });
            }
        }
        if victims.is_empty() && drained_reliable.is_empty() {
            // Nothing to do (unknown or already-gone nodes); report the
            // no-op so drivers waiting on the eviction don't hang.
            self.emit(JobEvent::NodesEvicted { nodes: Vec::new() });
            return;
        }
        let old_stage = self.stage;

        // Compute post-eviction membership.
        for v in victims.iter().chain(drained_reliable.iter()) {
            self.members.remove(v);
        }
        self.join_order
            .retain(|n| !victims.contains(n) && !drained_reliable.contains(n));
        self.helloed
            .retain(|n| !victims.contains(n) && !drained_reliable.contains(n));

        let mut new_stage = self.pick_stage();
        if self.transient().is_empty() && new_stage.uses_backups() {
            // Even a forced stage 2/3 cannot host ActivePSs once an
            // eviction storm took every transient machine: fall back to
            // the stage the thresholds dictate and re-serve from the
            // BackupPSs.
            new_stage = Stage::Stage1;
        }
        let victim_actives: Vec<NodeId> = victims
            .iter()
            .filter(|v| self.active_hosts.contains(v))
            .copied()
            .collect();
        self.active_hosts.retain(|n| !victims.contains(n));
        // Partitions in flight to each surviving new owner: those nodes
        // buffer updates and defer exports until the image lands.
        let mut migrating_to: BTreeMap<NodeId, Vec<PartitionId>> = BTreeMap::new();

        if old_stage.uses_backups() && !new_stage.uses_backups() {
            // Full fall-back to stage 1: every ActivePS (evicted or not)
            // drains to its backup, then backups promote to ParamServs.
            let drain_set: Vec<NodeId> = victim_actives
                .iter()
                .chain(self.active_hosts.iter())
                .copied()
                .collect();
            for a in &drain_set {
                let _ = ctx.send(*a, AgileMsg::DrainToBackup);
            }
            self.active_hosts.clear();
            self.promote_backups_to_serving();
        } else if old_stage.uses_backups() && !victim_actives.is_empty() {
            // Partial eviction in stage 2/3: migrate victims' partitions
            // to surviving transient nodes, preferring ones without an
            // ActivePS (paper Sec. 3.3).
            let survivors_without: Vec<NodeId> = self
                .transient()
                .into_iter()
                .filter(|n| !self.active_hosts.contains(n) && !self.known_dead.contains(n))
                .collect();
            let mut fresh = survivors_without.into_iter();
            for victim in &victim_actives {
                let parts = self.owned_by(*victim);
                if parts.is_empty() {
                    continue;
                }
                // Merge into the surviving ActivePS with the fewest
                // partitions when no fresh host remains. A node whose
                // `NodesFailed` is still queued must not become an
                // owner: images shipped to a corpse are lost.
                let new_owner = fresh.next().or_else(|| {
                    self.active_hosts
                        .iter()
                        .filter(|n| !self.known_dead.contains(n))
                        .min_by_key(|n| self.owned_by(**n).len())
                        .copied()
                });
                let Some(new_owner) = new_owner else {
                    // No transient survivor can host these partitions
                    // (a storm took every candidate): drain the victim
                    // and re-serve from the BackupPS copies instead.
                    let _ = ctx.send(*victim, AgileMsg::DrainToBackup);
                    for p in parts {
                        let i = p.0 as usize;
                        if let Some(b) = self.backup_owner[i] {
                            self.partition_owner[i] = b;
                            self.backup_owner[i] = None;
                        } else {
                            self.emit(JobEvent::Faulted {
                                fault: JobFault::PartitionStateLost { partition: p.0 },
                            });
                        }
                    }
                    continue;
                };
                self.active_hosts.insert(new_owner);
                let _ = ctx.send(
                    *victim,
                    AgileMsg::MigratePartitions {
                        to: new_owner,
                        partitions: parts.clone(),
                        retain_as_backup: false,
                    },
                );
                self.migrations
                    .entry(*victim)
                    .or_default()
                    .push((new_owner, parts.clone()));
                migrating_to
                    .entry(new_owner)
                    .or_default()
                    .extend(parts.iter().copied());
                for p in parts {
                    self.partition_owner[p.0 as usize] = new_owner;
                }
            }
        } else if !old_stage.uses_backups() {
            // Stage 1: parameter state lives on reliable nodes; evicted
            // transient nodes are workers only. Owners are unchanged
            // unless a reliable node was (incorrectly) named - filtered
            // by class above.
            debug_assert!(victims.iter().all(|v| !self.partition_owner.contains(v)));
        }

        // Drain warned reliable victims while they are still alive:
        // serving partitions (stage 1) migrate to the least-loaded
        // reliable survivor; backup partitions re-replicate out of the
        // victim's own backup store at the current broadcast floor.
        // Per-sender FIFO orders all exports before the victim's `Stop`
        // below, so the warning window is spent exactly on this drain.
        let mut repair_fills = 0u64;
        if !drained_reliable.is_empty() {
            // Victims are already out of membership; the gate above
            // guarantees at least one survivor remains.
            let survivors = self.reliable();
            for victim in &drained_reliable.clone() {
                let serve = self.owned_by(*victim);
                if !serve.is_empty() {
                    if let Some(dst) = survivors
                        .iter()
                        .filter(|n| !self.known_dead.contains(n))
                        .min_by_key(|n| (self.owned_by(**n).len(), n.0))
                        .copied()
                    {
                        let _ = ctx.send(
                            *victim,
                            AgileMsg::MigratePartitions {
                                to: dst,
                                partitions: serve.clone(),
                                retain_as_backup: false,
                            },
                        );
                        self.migrations
                            .entry(*victim)
                            .or_default()
                            .push((dst, serve.clone()));
                        migrating_to
                            .entry(dst)
                            .or_default()
                            .extend(serve.iter().copied());
                        for p in serve {
                            self.partition_owner[p.0 as usize] = dst;
                        }
                    }
                }
                let backed = self.backed_by(*victim);
                let mut by_dst: BTreeMap<NodeId, Vec<PartitionId>> = BTreeMap::new();
                for p in backed {
                    let Some(dst) = survivors
                        .iter()
                        .filter(|n| !self.known_dead.contains(n))
                        .min_by_key(|n| (self.backed_by(**n).len(), n.0))
                        .copied()
                    else {
                        continue;
                    };
                    self.backup_owner[p.0 as usize] = Some(dst);
                    self.filling.insert(p, (*victim, dst));
                    by_dst.entry(dst).or_default().push(p);
                    repair_fills += 1;
                }
                for (dst, parts) in by_dst {
                    migrating_to
                        .entry(dst)
                        .or_default()
                        .extend(parts.iter().copied());
                    let _ = ctx.send(
                        *victim,
                        AgileMsg::RecoverPartitions {
                            partitions: parts,
                            new_owner: dst,
                            clock: self.last_min_broadcast,
                        },
                    );
                }
            }
        }
        let all_victims: Vec<NodeId> = victims
            .iter()
            .chain(drained_reliable.iter())
            .copied()
            .collect();

        // Data blocks fall back to previous owners.
        let workers = self.worker_nodes(new_stage);
        if let Some(a) = self.assignment.as_mut() {
            for v in &all_victims {
                a.remove_worker(*v, &workers);
            }
            a.rebalance(&workers);
        }

        // Deregister victim workers; reliable workers too on 2→3 flips,
        // re-register them on 3→2 flips.
        for v in &all_victims {
            self.clock.deregister(v.0);
        }
        let worker_set: BTreeSet<NodeId> = workers.iter().copied().collect();
        for n in self.members.keys() {
            if worker_set.contains(n) && !self.known_dead.contains(n) {
                // Re-registering at the broadcast floor (not zero) keeps
                // stage flips from regressing the consistent clock. A
                // corpse awaiting its queued `NodesFailed` is skipped:
                // registering it would pin the minimum forever.
                self.clock.register_at(n.0, self.last_min_broadcast);
            } else {
                self.clock.deregister(n.0);
            }
        }

        self.stage = new_stage;
        self.topo_version += 1;
        let topo = self.topology(new_stage);
        let resume = self.last_min_broadcast;

        // Reconfigure all survivors with their (possibly promoted) roles.
        for n in self.members.keys().copied().collect::<Vec<_>>() {
            let serve = self.owned_by(n);
            let backup = self.backed_by(n);
            let blocks = self
                .assignment
                .as_ref()
                .map(|a| a.blocks_of(n))
                .unwrap_or_default();
            let assign = NodeAssignment {
                serve_partitions: serve,
                backup_partitions: backup,
                is_active_ps: new_stage.uses_backups() && self.active_hosts.contains(&n),
                data_blocks: blocks,
                // Migrated-in partitions stream in concurrently; marking
                // them awaited makes the recipient buffer their updates
                // and defer exports until the image lands. The eviction
                // itself does not gate on the resulting `Ready` (the
                // controller has no pending action here).
                await_installs: migrating_to.get(&n).cloned().unwrap_or_default(),
                topology: Arc::clone(&topo),
                resume_clock: resume,
                epoch: self.epoch,
            };
            let _ = ctx.send(n, AgileMsg::Configure(Box::new(assign)));
        }
        self.broadcast(ctx, &AgileMsg::Topology(Arc::clone(&topo)));
        self.broadcast(ctx, &AgileMsg::Start);

        // Victims: stop after their drain/migration work (per-sender
        // FIFO guarantees ordering).
        for v in &all_victims {
            let _ = ctx.send(*v, AgileMsg::Stop);
        }

        if old_stage != new_stage {
            self.emit(JobEvent::StageChanged {
                from: old_stage,
                to: new_stage,
            });
        }
        self.emit(JobEvent::NodesEvicted { nodes: all_victims });
        if !drained_reliable.is_empty() {
            if repair_fills > 0 {
                // Gate later commands on the fills landing: a recovery
                // quorum run before a fresh backup installs its fill
                // would read a meaningless zero clock from it.
                self.pending_ready = self
                    .filling
                    .values()
                    .filter(|(src, _)| drained_reliable.contains(src))
                    .map(|(_, dst)| *dst)
                    .collect();
                self.pending = Some(Pending::ReliableRepair {
                    nodes: drained_reliable,
                    partitions: repair_fills,
                });
            } else {
                self.emit(JobEvent::ReliableRepaired {
                    nodes: drained_reliable,
                    partitions: 0,
                });
            }
        }
        self.maybe_broadcast_min(ctx);
    }

    /// Whether warned reliable victims can drain in-job: at least one
    /// reliable survivor must remain to absorb their state, and no
    /// victim may be mid-protocol (an unacknowledged outbound migration
    /// or an in-flight backup fill touching it cannot be handed over
    /// consistently within the warning window).
    fn reliable_drainable(
        &self,
        reliable_victims: &[NodeId],
        transient_victims: &[NodeId],
    ) -> bool {
        let survivors = self
            .reliable()
            .into_iter()
            .filter(|n| !reliable_victims.contains(n) && !self.known_dead.contains(n))
            .count();
        if survivors == 0 {
            return false;
        }
        let doomed = |n: &NodeId| reliable_victims.contains(n) || transient_victims.contains(n);
        if self.migrations.keys().any(doomed) {
            return false;
        }
        !self
            .filling
            .values()
            .any(|(src, dst)| doomed(src) || doomed(dst))
    }

    /// Proactive demotion on a forecast alert: move the suspects'
    /// ActivePS partitions to safer transient hosts (or drain to the
    /// BackupPS copies when none exists) while the suspects *keep
    /// working*. Membership, stage, and worker clocks are untouched, so
    /// a false-positive forecast costs only the migration traffic; if
    /// the eviction does land, the suspects own nothing and the warned
    /// drain is trivial.
    fn handle_predrain(&mut self, nodes: Vec<NodeId>, ctx: &mut SimCtx<'_, AgileMsg>) {
        // Only live transient members can be demoted; reliable nodes are
        // never evicted (paper Sec. 2) and unknown nodes are stale alerts.
        let suspects: Vec<NodeId> = nodes
            .into_iter()
            .filter(|n| {
                self.members.get(n) == Some(&NodeClass::Transient) && !self.known_dead.contains(n)
            })
            .collect();
        if suspects.is_empty() || !self.stage.uses_backups() {
            // Stage 1 keeps all parameter state on the reliable tier, so
            // the suspects are already safe. Report the no-op so drivers
            // waiting on the pre-drain don't hang.
            self.emit(JobEvent::NodesPreDrained {
                nodes: suspects,
                partitions: 0,
            });
            return;
        }

        let suspect_actives: Vec<NodeId> = suspects
            .iter()
            .filter(|n| self.active_hosts.contains(n))
            .copied()
            .collect();
        if suspect_actives.is_empty() {
            // Workers only: nothing to move, the nodes are already safe.
            self.emit(JobEvent::NodesPreDrained {
                nodes: suspects,
                partitions: 0,
            });
            return;
        }

        // Destination preference mirrors the eviction path: a fresh
        // un-suspected transient node without an ActivePS, else the
        // least-loaded surviving un-suspected ActivePS, else drain to
        // the BackupPS copies.
        let survivors_without: Vec<NodeId> = self
            .transient()
            .into_iter()
            .filter(|n| {
                !self.active_hosts.contains(n)
                    && !self.known_dead.contains(n)
                    && !suspects.contains(n)
            })
            .collect();
        let mut fresh = survivors_without.into_iter();
        let mut migrating_to: BTreeMap<NodeId, Vec<PartitionId>> = BTreeMap::new();
        let mut moved = 0u64;
        for suspect in &suspect_actives {
            let parts = self.owned_by(*suspect);
            if parts.is_empty() {
                self.active_hosts.remove(suspect);
                continue;
            }
            let new_owner = fresh.next().or_else(|| {
                self.active_hosts
                    .iter()
                    .filter(|n| {
                        !self.known_dead.contains(n)
                            && !suspects.contains(n)
                            && !suspect_actives.contains(n)
                    })
                    .min_by_key(|n| self.owned_by(**n).len())
                    .copied()
            });
            let Some(new_owner) = new_owner else {
                // Alert storm over the whole transient tier: drain to the
                // backups and serve from the reliable copies, exactly the
                // established eviction fallback.
                let _ = ctx.send(*suspect, AgileMsg::DrainToBackup);
                for p in parts {
                    let i = p.0 as usize;
                    if let Some(b) = self.backup_owner[i] {
                        self.partition_owner[i] = b;
                        self.backup_owner[i] = None;
                        moved += 1;
                    } else {
                        self.emit(JobEvent::Faulted {
                            fault: JobFault::PartitionStateLost { partition: p.0 },
                        });
                    }
                }
                self.active_hosts.remove(suspect);
                continue;
            };
            self.active_hosts.insert(new_owner);
            let _ = ctx.send(
                *suspect,
                AgileMsg::MigratePartitions {
                    to: new_owner,
                    partitions: parts.clone(),
                    retain_as_backup: false,
                },
            );
            // Track the in-flight images so a suspect dying mid-handover
            // triggers the same rollback as any interrupted migration.
            self.migrations
                .entry(*suspect)
                .or_default()
                .push((new_owner, parts.clone()));
            migrating_to
                .entry(new_owner)
                .or_default()
                .extend(parts.iter().copied());
            moved += parts.len() as u64;
            for p in parts {
                self.partition_owner[p.0 as usize] = new_owner;
            }
            self.active_hosts.remove(suspect);
        }

        // Re-route traffic to the new owners. The suspects stay in the
        // worker set with their clocks — only serving roles changed.
        self.topo_version += 1;
        let topo = self.topology(self.stage);
        let resume = self.last_min_broadcast;
        for n in self.members.keys().copied().collect::<Vec<_>>() {
            let assign = NodeAssignment {
                serve_partitions: self.owned_by(n),
                backup_partitions: self.backed_by(n),
                is_active_ps: self.stage.uses_backups() && self.active_hosts.contains(&n),
                data_blocks: self
                    .assignment
                    .as_ref()
                    .map(|a| a.blocks_of(n))
                    .unwrap_or_default(),
                await_installs: migrating_to.get(&n).cloned().unwrap_or_default(),
                topology: Arc::clone(&topo),
                resume_clock: resume,
                epoch: self.epoch,
            };
            let _ = ctx.send(n, AgileMsg::Configure(Box::new(assign)));
        }
        self.broadcast(ctx, &AgileMsg::Topology(Arc::clone(&topo)));
        self.broadcast(ctx, &AgileMsg::Start);

        self.emit(JobEvent::NodesPreDrained {
            nodes: suspects,
            partitions: moved,
        });
        self.maybe_broadcast_min(ctx);
    }

    // ------------------------------------------------------------------
    // Failure path
    // ------------------------------------------------------------------

    fn handle_failure(&mut self, nodes: Vec<NodeId>, ctx: &mut SimCtx<'_, AgileMsg>) {
        let requested = nodes.clone();
        // This is the queued report `note_dead_during_pending` was
        // holding the mark for; from here the normal removal below takes
        // over.
        for n in &requested {
            self.known_dead.remove(n);
        }
        // A node with an in-flight migration may hold the only serving
        // copy of its outbound partitions even after eviction removed it
        // from membership — its death still matters.
        let victims: Vec<NodeId> = nodes
            .into_iter()
            .filter(|n| self.members.contains_key(n) || self.migrations.contains_key(n))
            .collect();
        if victims.is_empty() {
            // Unknown or already-gone nodes: acknowledge the no-op with
            // the requested list so waiting drivers don't hang.
            self.emit(JobEvent::NodesFailedRecovered {
                nodes: requested,
                rolled_back_to: self.last_min_broadcast,
            });
            return;
        }
        // In-flight backup fills: a dead destination just re-orphans
        // its partitions (`backup_owner` still names it, so the repair
        // below re-replicates them); a dead *source* took the only
        // usable copy before its fill landed — report each partition
        // lost and let the session restart from its last checkpoint.
        let mut lost_fills: Vec<PartitionId> = Vec::new();
        self.filling.retain(|p, (src, dst)| {
            if victims.contains(src) {
                lost_fills.push(*p);
                false
            } else {
                !victims.contains(dst)
            }
        });
        if !lost_fills.is_empty() {
            for p in lost_fills {
                self.emit(JobEvent::Faulted {
                    fault: JobFault::PartitionStateLost { partition: p.0 },
                });
            }
            return;
        }
        let reliable_victims: Vec<NodeId> = victims
            .iter()
            .filter(|v| self.members.get(v) == Some(&NodeClass::Reliable))
            .copied()
            .collect();
        if !reliable_victims.is_empty() {
            // First try to repair in-job: when the dead reliable nodes
            // held only backup copies and enough reliable capacity
            // survives, their partitions re-replicate from the live
            // serving owners onto survivors (paper Sec. 3.3's tiered
            // reliability, extended to partial reliable-tier loss).
            // Only when the loss is unrepairable — no survivor, the
            // victims held serving state, or a partition lost both its
            // copies — does the controller report the typed fault that
            // sends the session back to its external checkpoint.
            if self.try_repair_reliable(&reliable_victims, &victims, ctx) {
                return;
            }
            self.emit(JobEvent::Faulted {
                fault: JobFault::ReliableNodesFailed {
                    nodes: reliable_victims,
                },
            });
            return;
        }
        let owners_lost = victims
            .iter()
            .any(|v| self.partition_owner.contains(v) || self.migrations.contains_key(v));

        for v in &victims {
            self.members.remove(v);
            self.clock.deregister(v.0);
            self.migrations.remove(v);
        }
        self.join_order.retain(|n| !victims.contains(n));
        self.helloed.retain(|n| !victims.contains(n));
        self.active_hosts.retain(|n| !victims.contains(n));

        if !owners_lost {
            // Workers only: reassign data, continue without rollback.
            let workers = self.worker_nodes(self.stage);
            if let Some(a) = self.assignment.as_mut() {
                for v in &victims {
                    a.remove_worker(*v, &workers);
                }
            }
            self.topo_version += 1;
            let topo = self.topology(self.stage);
            for n in self.members.keys().copied().collect::<Vec<_>>() {
                let blocks = self
                    .assignment
                    .as_ref()
                    .map(|a| a.blocks_of(n))
                    .unwrap_or_default();
                let assign = NodeAssignment {
                    serve_partitions: self.owned_by(n),
                    backup_partitions: self.backed_by(n),
                    is_active_ps: self.stage.uses_backups() && self.active_hosts.contains(&n),
                    data_blocks: blocks,
                    await_installs: Vec::new(),
                    topology: Arc::clone(&topo),
                    resume_clock: self.last_min_broadcast,
                    epoch: self.epoch,
                };
                let _ = ctx.send(n, AgileMsg::Configure(Box::new(assign)));
            }
            self.broadcast(ctx, &AgileMsg::Topology(topo));
            self.broadcast(ctx, &AgileMsg::Start);
            self.emit(JobEvent::NodesFailedRecovered {
                nodes: requested,
                rolled_back_to: self.last_min_broadcast,
            });
            self.maybe_broadcast_min(ctx);
            return;
        }

        // Phase 1: ask every backup holder for its consistent clock.
        let backups: BTreeSet<NodeId> = self.backup_owner.iter().flatten().copied().collect();
        if backups.is_empty() {
            // Partition owners died with nothing to recover from (e.g.
            // an unwarned failure in stage 1 took a serving node, which
            // only reliable machines host — already reported above — or
            // every backup was stripped by a concurrent failure).
            self.emit(JobEvent::Faulted {
                fault: JobFault::NoBackups,
            });
            return;
        }
        for b in &backups {
            let _ = ctx.send(*b, AgileMsg::BackupClockQuery);
        }
        self.pending = Some(Pending::RecoveryQuery {
            failed: requested,
            replies: BTreeMap::new(),
            expect: backups,
        });
    }

    fn on_backup_clock_info(
        &mut self,
        from: NodeId,
        min_clock: u64,
        ctx: &mut SimCtx<'_, AgileMsg>,
    ) {
        let (failed, target) = match self.pending.as_mut() {
            Some(Pending::RecoveryQuery {
                failed,
                replies,
                expect,
            }) => {
                if !expect.contains(&from) {
                    return;
                }
                replies.insert(from, min_clock);
                // Completion is judged against `expect`, not reply
                // counts: a backup stripped from `expect` after replying
                // must not wedge (or skew) the quorum.
                if expect.iter().all(|b| replies.contains_key(b)) {
                    let target = expect
                        .iter()
                        .filter_map(|b| replies.get(b))
                        .copied()
                        .min()
                        .unwrap_or(0);
                    (failed.clone(), target)
                } else {
                    return;
                }
            }
            _ => return,
        };
        self.pending = None;
        self.run_recovery(failed, target, ctx);
    }

    /// Phase 2 of failure recovery: new owners, rollback-aligned images
    /// from backups, epoch bump, worker restart.
    fn run_recovery(&mut self, failed: Vec<NodeId>, target: u64, ctx: &mut SimCtx<'_, AgileMsg>) {
        self.epoch += 1;
        // Recovery reassigns and reinstalls every partition from the
        // rolled-back backups; in-flight migrations are moot.
        self.migrations.clear();
        // Nodes whose own `NodesFailed` is still queued are members on
        // paper but corpses in practice: this recovery must not make
        // them owners or wait on them.
        let transient: Vec<NodeId> = self
            .transient()
            .into_iter()
            .filter(|n| !self.known_dead.contains(n))
            .collect();

        if transient.is_empty() {
            // All transient resources failed at once (the paper's "all
            // or most of the transient resources fail" case, Sec. 3.3):
            // the BackupPSs roll back to the last consistent state and
            // become the serving ParamServs; the reliable workers redo
            // the lost iterations. The job degenerates to stage 1.
            let old_stage = self.stage;
            self.active_hosts.clear();
            self.promote_backups_to_serving();
            self.stage = Stage::Stage1;
            if old_stage != Stage::Stage1 {
                self.emit(JobEvent::StageChanged {
                    from: old_stage,
                    to: Stage::Stage1,
                });
            }
        } else {
            // Reassign dead partitions to surviving transient nodes.
            let dead_partitions: Vec<PartitionId> = self
                .partition_owner
                .iter()
                .enumerate()
                .filter(|(_, o)| !self.members.contains_key(o) || self.known_dead.contains(o))
                .map(|(i, _)| PartitionId(i as u32))
                .collect();
            let fresh: Vec<NodeId> = transient
                .iter()
                .filter(|n| !self.active_hosts.contains(n))
                .copied()
                .collect();
            let mut fresh_iter = fresh.iter();
            for p in &dead_partitions {
                let i = p.0 as usize;
                let new_owner = fresh_iter.next().copied().or_else(|| {
                    self.active_hosts
                        .iter()
                        .filter(|n| !self.known_dead.contains(n))
                        .min_by_key(|n| self.owned_by(**n).len())
                        .copied()
                });
                match new_owner {
                    Some(n) => {
                        self.active_hosts.insert(n);
                        self.partition_owner[i] = n;
                    }
                    // No transient survivor can serve (every one is
                    // dead or unusable): fall back to the backup copy,
                    // or report the partition lost.
                    None => match self.backup_owner[i] {
                        Some(b) => {
                            self.partition_owner[i] = b;
                            self.backup_owner[i] = None;
                        }
                        None => self.emit(JobEvent::Faulted {
                            fault: JobFault::PartitionStateLost { partition: p.0 },
                        }),
                    },
                }
            }
        }

        // Data blocks of dead workers fall back.
        let workers = self.worker_nodes(self.stage);
        if let Some(a) = self.assignment.as_mut() {
            for v in &failed {
                a.remove_worker(*v, &workers);
            }
        }

        // Reset clocks: every worker resumes from the target. A corpse
        // registered here would pin the minimum at `target` forever.
        self.clock = ClockTable::new(self.cfg.slack);
        for w in &workers {
            if self.known_dead.contains(w) {
                continue;
            }
            self.clock.register_at(w.0, target);
        }
        self.last_min_broadcast = target;

        self.topo_version += 1;
        let topo = self.topology(self.stage);

        // Everything restarts from the recovered clock in the new epoch.
        self.broadcast(
            ctx,
            &AgileMsg::RestartFrom {
                clock: target,
                epoch: self.epoch,
            },
        );

        // Backups roll back to the target and ship recovery images.
        // This is sent BEFORE the reconfiguration so that a backup that
        // is itself being promoted to the serving owner (full transient
        // loss) rolls back while the partitions are still in its backup
        // store (per-sender FIFO guarantees the node processes this
        // first).
        let mut by_pair: BTreeMap<(NodeId, NodeId), Vec<PartitionId>> = BTreeMap::new();
        for p in self.layout.partitions() {
            let owner = self.partition_owner[p.0 as usize];
            let source = self.backup_owner[p.0 as usize].unwrap_or(owner);
            by_pair.entry((source, owner)).or_default().push(p);
        }
        for ((backup, owner), parts) in by_pair {
            let _ = ctx.send(
                backup,
                AgileMsg::RecoverPartitions {
                    partitions: parts,
                    new_owner: owner,
                    clock: target,
                },
            );
        }

        // Reconfigure with awaits: every serving owner re-installs all
        // its partitions from backup so serving state is exactly the
        // rolled-back backup state.
        self.pending_ready.clear();
        for n in self.members.keys().copied().collect::<Vec<_>>() {
            let serve = self.owned_by(n);
            let backup = self.backed_by(n);
            let blocks = self
                .assignment
                .as_ref()
                .map(|a| a.blocks_of(n))
                .unwrap_or_default();
            if !serve.is_empty() && !self.known_dead.contains(&n) {
                self.pending_ready.insert(n);
            }
            let assign = NodeAssignment {
                serve_partitions: serve.clone(),
                backup_partitions: backup,
                is_active_ps: self.stage.uses_backups() && self.active_hosts.contains(&n),
                data_blocks: blocks,
                await_installs: serve,
                topology: Arc::clone(&topo),
                resume_clock: target,
                epoch: self.epoch,
            };
            let _ = ctx.send(n, AgileMsg::Configure(Box::new(assign)));
        }
        self.broadcast(ctx, &AgileMsg::Topology(Arc::clone(&topo)));

        self.pending = Some(Pending::RecoveryInstall {
            failed,
            clock: target,
        });
        self.try_finish_pending(ctx);
    }

    // ------------------------------------------------------------------
    // Fault-tolerance helpers
    // ------------------------------------------------------------------

    /// Attempts in-job repair of a dead slice of the reliable tier:
    /// the victims' backup partitions re-replicate from their live
    /// serving owners onto surviving reliable nodes. Returns `false`
    /// without mutating anything when the loss is unrepairable — no
    /// reliable survivor, a victim held serving state or an in-flight
    /// migration, or some orphaned partition's serving owner is dead
    /// too (both copies gone). On success every victim (including any
    /// transient worker-only nodes reported in the same failure) is
    /// removed from the job and `ReliableRepaired` is emitted once the
    /// fills install.
    fn try_repair_reliable(
        &mut self,
        reliable_victims: &[NodeId],
        victims: &[NodeId],
        ctx: &mut SimCtx<'_, AgileMsg>,
    ) -> bool {
        let doomed = |n: &NodeId| victims.contains(n) || self.known_dead.contains(n);
        let survivors: Vec<NodeId> = self.reliable().into_iter().filter(|n| !doomed(n)).collect();
        if survivors.is_empty() {
            return false;
        }
        // Victims holding serving state (stage 1 ParamServs, or a
        // transient ActivePS dying in the same batch) or mid-migration
        // sources cannot be repaired by re-replication: the only
        // serving copy is gone or in flight from a corpse.
        if victims
            .iter()
            .any(|v| self.partition_owner.contains(v) || self.migrations.contains_key(v))
        {
            return false;
        }
        // Every orphaned backup partition needs a live serving owner to
        // re-replicate from.
        let orphaned: Vec<PartitionId> = reliable_victims
            .iter()
            .flat_map(|v| self.backed_by(*v))
            .collect();
        for p in &orphaned {
            let owner = self.partition_owner[p.0 as usize];
            if !self.members.contains_key(&owner) || doomed(&owner) {
                return false;
            }
        }

        // Repairable: drop the victims from the job.
        for v in victims {
            self.members.remove(v);
            self.clock.deregister(v.0);
        }
        self.join_order.retain(|n| !victims.contains(n));
        self.helloed.retain(|n| !victims.contains(n));
        self.active_hosts.retain(|n| !victims.contains(n));

        // Losing reliable nodes can only raise the transient:reliable
        // ratio, so the stage may flip 2→3 (never toward stage 1).
        let old_stage = self.stage;
        let new_stage = self.pick_stage();
        self.stage = new_stage;

        // Re-replicate each orphaned partition onto the least-backed
        // survivor (ties broken by node id for determinism).
        let mut by_pair: BTreeMap<(NodeId, NodeId), Vec<PartitionId>> = BTreeMap::new();
        for p in &orphaned {
            let Some(dst) = survivors
                .iter()
                .min_by_key(|n| (self.backed_by(**n).len(), n.0))
                .copied()
            else {
                // Unreachable: survivors checked non-empty above.
                return false;
            };
            let owner = self.partition_owner[p.0 as usize];
            self.backup_owner[p.0 as usize] = Some(dst);
            self.filling.insert(*p, (owner, dst));
            by_pair.entry((owner, dst)).or_default().push(*p);
        }
        // Ship the fills BEFORE the reconfiguration below: per-sender
        // FIFO makes each owner export its serving image (folding in
        // unpushed deltas) before it sees the new topology and starts
        // streaming incremental pushes to the fresh backup.
        for ((owner, dst), parts) in &by_pair {
            let _ = ctx.send(
                *owner,
                AgileMsg::ReplicateBackup {
                    partitions: parts.clone(),
                    to: *dst,
                },
            );
        }

        // Data blocks of dead workers fall back to survivors.
        let workers = self.worker_nodes(new_stage);
        if let Some(a) = self.assignment.as_mut() {
            for v in victims {
                a.remove_worker(*v, &workers);
            }
            a.rebalance(&workers);
        }
        let worker_set: BTreeSet<NodeId> = workers.iter().copied().collect();
        for n in self.members.keys() {
            if worker_set.contains(n) && !self.known_dead.contains(n) {
                self.clock.register_at(n.0, self.last_min_broadcast);
            } else {
                self.clock.deregister(n.0);
            }
        }

        // Reconfigure everyone. Fill destinations gate their `Ready` on
        // the awaited installs (on top of whatever migration images they
        // are still owed: a node adds to what it awaits, never forgets).
        let mut awaits: BTreeMap<NodeId, Vec<PartitionId>> = BTreeMap::new();
        for ((_, dst), parts) in &by_pair {
            awaits
                .entry(*dst)
                .or_default()
                .extend(parts.iter().copied());
        }
        self.topo_version += 1;
        let topo = self.topology(new_stage);
        let resume = self.last_min_broadcast;
        self.pending_ready = by_pair.keys().map(|(_, dst)| *dst).collect();
        for n in self.members.keys().copied().collect::<Vec<_>>() {
            let assign = NodeAssignment {
                serve_partitions: self.owned_by(n),
                backup_partitions: self.backed_by(n),
                is_active_ps: new_stage.uses_backups() && self.active_hosts.contains(&n),
                data_blocks: self
                    .assignment
                    .as_ref()
                    .map(|a| a.blocks_of(n))
                    .unwrap_or_default(),
                await_installs: awaits.get(&n).cloned().unwrap_or_default(),
                topology: Arc::clone(&topo),
                resume_clock: resume,
                epoch: self.epoch,
            };
            let _ = ctx.send(n, AgileMsg::Configure(Box::new(assign)));
        }
        self.broadcast(ctx, &AgileMsg::Topology(Arc::clone(&topo)));
        self.broadcast(ctx, &AgileMsg::Start);
        if old_stage != new_stage {
            self.emit(JobEvent::StageChanged {
                from: old_stage,
                to: new_stage,
            });
        }

        let partitions = orphaned.len() as u64;
        if self.pending_ready.is_empty() {
            self.emit(JobEvent::ReliableRepaired {
                nodes: reliable_victims.to_vec(),
                partitions,
            });
        } else {
            self.pending = Some(Pending::ReliableRepair {
                nodes: reliable_victims.to_vec(),
                partitions,
            });
        }
        self.maybe_broadcast_min(ctx);
        true
    }

    /// Promotes every BackupPS copy to serving owner (degeneration to
    /// stage 1 after losing the whole ActivePS tier). A partition with
    /// no backup keeps its current owner when that owner is still a
    /// live member, and is reported lost otherwise.
    fn promote_backups_to_serving(&mut self) {
        for i in 0..self.partition_owner.len() {
            match self.backup_owner[i] {
                Some(b) => {
                    self.partition_owner[i] = b;
                    self.backup_owner[i] = None;
                }
                None => {
                    if !self.members.contains_key(&self.partition_owner[i]) {
                        self.emit(JobEvent::Faulted {
                            fault: JobFault::PartitionStateLost {
                                partition: i as u32,
                            },
                        });
                    }
                }
            }
        }
    }

    /// Nodes died while an action is in flight: strip every expectation
    /// only the dead could satisfy, so the pending action completes and
    /// the queued `NodesFailed` gets to run instead of wedging forever.
    fn note_dead_during_pending(&mut self, dead: &[NodeId], ctx: &mut SimCtx<'_, AgileMsg>) {
        // Remember the corpses: the pending action (and any recovery it
        // triggers) must not hand them new partitions, wait on their
        // `Ready`, or count them in the clock barrier. Their own queued
        // `NodesFailed` clears the mark when it finally runs.
        self.known_dead.extend(dead.iter().copied());
        for d in dead {
            self.pending_ready.remove(d);
        }
        // A migration destination waiting on installs from a dead
        // source will never see them, so its `Ready` never comes; the
        // rollback recovery queued behind this action re-installs it.
        let stranded: Vec<NodeId> = dead
            .iter()
            .filter_map(|d| self.migrations.get(d))
            .flat_map(|batches| batches.iter().map(|(dest, _)| *dest))
            .collect();
        for n in stranded {
            self.pending_ready.remove(&n);
        }
        // A backup-fill destination waiting on a dead source's export
        // will never see it either; the queued `NodesFailed` will
        // report the partition lost and the session restarts.
        let stranded_fills: Vec<NodeId> = self
            .filling
            .values()
            .filter(|(src, _)| dead.contains(src))
            .map(|(_, dst)| *dst)
            .collect();
        for n in stranded_fills {
            self.pending_ready.remove(&n);
        }
        // Snapshot exports from a dead owner will never arrive.
        if let Some(snap) = self.snapshot.as_mut() {
            let owners = &self.partition_owner;
            snap.expect
                .retain(|p| !dead.contains(&owners[p.0 as usize]));
        }
        self.finish_snapshot_if_complete(ctx);

        // Deferred continuations: the match below holds a borrow of
        // `self.pending`, so whole-`self` calls run after it.
        enum Act {
            Progress,
            Finish,
            Recover { failed: Vec<NodeId>, target: u64 },
            Fault(JobFault),
        }
        let act = match self.pending.as_mut() {
            Some(Pending::StartJob) => {
                // The job has not started: drop the dead from the
                // roster and (re-)run the initial layout with the
                // survivors once their `Hello`s are all in.
                self.members.retain(|n, _| !dead.contains(n));
                self.join_order.retain(|n| !dead.contains(n));
                self.helloed.retain(|n| !dead.contains(n));
                for d in dead {
                    self.clock.deregister(d.0);
                }
                Act::Progress
            }
            Some(Pending::AddNodes {
                added,
                configured: false,
            }) => {
                // Integration has not run: dead added nodes simply
                // never join. Dead *existing* members that hold no
                // parameter state can be dropped too (their queued
                // `NodesFailed` becomes a no-op acknowledgement);
                // state-bearing ones must wait for the queued recovery.
                added.retain(|n| !dead.contains(n));
                let droppable: Vec<NodeId> = dead
                    .iter()
                    .filter(|d| {
                        !self.partition_owner.contains(d) && !self.migrations.contains_key(d)
                    })
                    .copied()
                    .collect();
                self.members.retain(|n, _| !droppable.contains(n));
                self.join_order.retain(|n| !droppable.contains(n));
                self.helloed.retain(|n| !droppable.contains(n));
                for d in &droppable {
                    self.clock.deregister(d.0);
                }
                Act::Progress
            }
            Some(Pending::RecoveryQuery {
                failed,
                replies,
                expect,
            }) => {
                expect.retain(|b| !dead.contains(b));
                if expect.is_empty() {
                    Act::Fault(JobFault::NoBackups)
                } else if expect.iter().all(|b| replies.contains_key(b)) {
                    let target = expect
                        .iter()
                        .filter_map(|b| replies.get(b))
                        .copied()
                        .min()
                        .unwrap_or(0);
                    Act::Recover {
                        failed: failed.clone(),
                        target,
                    }
                } else {
                    Act::Finish
                }
            }
            // Configured AddNodes, RecoveryInstall, or snapshot-only:
            // the stripped `pending_ready` may already be empty.
            _ => Act::Finish,
        };
        match act {
            Act::Progress => self.try_progress_membership(ctx),
            Act::Finish => self.try_finish_pending(ctx),
            Act::Recover { failed, target } => {
                self.pending = None;
                self.run_recovery(failed, target, ctx);
            }
            Act::Fault(fault) => {
                self.pending = None;
                self.emit(JobEvent::Faulted { fault });
                self.drain_queue(ctx);
            }
        }
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
