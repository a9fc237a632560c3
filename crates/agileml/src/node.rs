//! The per-machine behavior: one event loop multiplexing the server role
//! (ParamServ / ActivePS / BackupPS duties) and the worker role.
//!
//! Real AgileML runs one process per machine with worker threads per core
//! plus optional server threads; here each machine is one [`SimNode`] on
//! the job's discrete-event cluster running both roles through a single
//! message handler, which preserves every protocol interaction
//! (including compute/serving interference on a shared machine) while
//! keeping the runtime dependency-free.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use proteus_mlapps::app::MlApp;
use proteus_ps::{PartitionId, PartitionMap};
use proteus_simnet::{Control, NodeId, SimCtx, SimNode};
use proteus_simtime::rng::seeded_stream;

use crate::config::AgileConfig;
use crate::msg::{AgileMsg, Values};
use crate::server::ServerState;
use crate::topology::Topology;
use crate::worker::{BlockKeys, WorkerState};

/// What waits on one partition's image, in arrival order within each
/// kind. When the image lands it is installed, then the updates are
/// applied, then the exports served, then the replicas shipped; when it
/// is relayed to a migration target, the updates follow it there.
#[derive(Default)]
struct Awaited {
    /// Update batches for the partition.
    updates: Vec<Values>,
    /// Who asked for an export of it (snapshots must never observe an
    /// empty freshly-migrated partition).
    exports: Vec<NodeId>,
    /// Fresh backups owed a replica of it (a repair can target a
    /// partition this node is itself still receiving mid-migration).
    replicas: Vec<NodeId>,
}

/// All mutable state of one node.
pub(crate) struct NodeState<A: MlApp> {
    server: ServerState,
    worker: WorkerState<A>,
    topology: Option<Arc<Topology>>,
    /// Partitions migrated away: destination for late traffic.
    forward: BTreeMap<PartitionId, NodeId>,
    /// Partitions whose images are still in flight, each with the work
    /// waiting for it to land.
    awaited: BTreeMap<PartitionId, Awaited>,
    /// Images that landed since the last `Configure` — a migrated image
    /// can outrace the `Configure` naming it (different senders), and a
    /// node must not wait for an install it already has.
    recent_installs: BTreeSet<PartitionId>,
    /// Whether a `Ready` is owed once `awaited` drains.
    ready_pending: bool,
    /// A `Stop` arrived while migrated-away partitions still awaited
    /// their inbound images (we must relay them to the new owner, or the
    /// only copy dies with us). Honored once the relays drain.
    stop_deferred: bool,
    /// `RecoverPartitions` requests deferred because some named
    /// partition's backup fill is still in flight to this node
    /// (correlated kills can race a repair fill with the next
    /// recovery). `(partitions, new_owner, clock, still-missing)`.
    pending_recovers: Vec<(Vec<PartitionId>, NodeId, u64, BTreeSet<PartitionId>)>,
    configured_once: bool,
    /// Global clock of the last backup push taken.
    last_push_min: u64,
    controller: NodeId,
}

impl<A: MlApp> NodeState<A> {
    /// The state of machine `me` before its first `Configure`.
    pub(crate) fn new(
        me: NodeId,
        controller: NodeId,
        app: Arc<A>,
        dataset: Arc<Vec<A::Datum>>,
        block_keys: Arc<BlockKeys>,
        cfg: AgileConfig,
    ) -> Self {
        // `AgileConfig::validate` rejects zero partitions before any node
        // is added.
        #[allow(clippy::expect_used)]
        let layout = PartitionMap::new(cfg.partitions).expect("validated config");
        let rng = seeded_stream(cfg.seed, 0x4000 + u64::from(me.0));
        NodeState {
            server: ServerState::new(layout),
            worker: WorkerState::new(app, dataset, block_keys, layout, cfg.slack, rng, controller),
            topology: None,
            forward: BTreeMap::new(),
            awaited: BTreeMap::new(),
            recent_installs: BTreeSet::new(),
            ready_pending: false,
            stop_deferred: false,
            pending_recovers: Vec::new(),
            configured_once: false,
            last_push_min: 0,
            controller,
        }
    }

    /// Handles one message; returns `false` to stop the node.
    fn handle(&mut self, from: NodeId, msg: AgileMsg, ctx: &mut SimCtx<'_, AgileMsg>) -> bool {
        match msg {
            AgileMsg::Configure(assign) => {
                if !self.configured_once {
                    self.worker.set_clock(assign.resume_clock);
                    self.worker.set_epoch(assign.epoch);
                    self.configured_once = true;
                }
                self.server.reconfigure(
                    &assign.serve_partitions,
                    &assign.backup_partitions,
                    assign.is_active_ps,
                );
                self.worker.assign_blocks(&assign.data_blocks);
                // Routing may have changed: abandon reads owed by nodes
                // that may have left, and reissue them.
                self.worker.abort_inflight_reads();
                self.topology = Some(Arc::clone(&assign.topology));
                // Partitions assigned back to this node are no longer
                // migrated-away; stale forwards would misroute installs.
                self.forward.retain(|p, _| {
                    !assign.serve_partitions.contains(p)
                        && !assign.backup_partitions.contains(p)
                        && !assign.await_installs.contains(p)
                });
                // Added to what is already awaited, never in place of it:
                // an image an earlier reconfiguration left in flight is
                // still coming, and forgetting it would let a later
                // `MigratePartitions` export a store that never arrived
                // and a later `Stop` abandon the relay it owes.
                for p in &assign.await_installs {
                    self.awaited.entry(*p).or_default();
                }
                for p in std::mem::take(&mut self.recent_installs) {
                    self.awaited.remove(&p);
                }
                if self.awaited.is_empty() {
                    let _ = ctx.send(self.controller, AgileMsg::Ready);
                } else {
                    self.ready_pending = true;
                }
                self.progress_worker(ctx);
            }
            AgileMsg::Topology(t) => {
                let newer = self
                    .topology
                    .as_ref()
                    .is_none_or(|cur| t.version > cur.version);
                if newer {
                    self.topology = Some(t);
                    self.worker.abort_inflight_reads();
                }
                self.progress_worker(ctx);
            }
            AgileMsg::Start => {
                self.worker.start();
                self.progress_worker(ctx);
            }
            AgileMsg::Stop => {
                if self.must_relay_before_stopping() {
                    // An eviction victim can be a migration *chain* link:
                    // partitions migrated away while their own images are
                    // still in flight to us. Stopping now would drop the
                    // relay and lose the only serving copy — finish the
                    // drain work the warning window exists for, then stop.
                    self.stop_deferred = true;
                    return true;
                }
                return false;
            }
            AgileMsg::GlobalClock { min, epoch } => {
                self.worker.on_global_clock(min, epoch);
                if epoch == self.worker.epoch()
                    && self.server.is_active()
                    && min > self.last_push_min
                {
                    self.last_push_min = min;
                    self.push_to_backups(min, false, ctx);
                }
                self.progress_worker(ctx);
            }
            AgileMsg::ReadReq { token, keys } => {
                let values = self.server.handle_read(&keys);
                let _ = ctx.send(from, AgileMsg::ReadResp { token, values });
            }
            AgileMsg::ReadResp { token, values } => {
                if let Some(topo) = self.topology.clone() {
                    let out = self.worker.on_read_resp(from, token, values, &topo);
                    self.dispatch(out, ctx);
                    // A finished iteration may immediately admit the next
                    // one (SSP gate willing). A worker running behind the
                    // broadcast minimum — e.g. a reliable worker rejoining
                    // on a stage 3→2 flip — gets no `GlobalClock` until
                    // *its own* progress advances the minimum, so waiting
                    // for one here would wedge it after a single
                    // iteration.
                    self.progress_worker(ctx);
                }
            }
            AgileMsg::UpdateBatch {
                partition,
                clock,
                epoch,
                updates,
            } => {
                if epoch < self.worker.epoch() {
                    return true; // Stale pre-recovery traffic.
                }
                if let Some(awaited) = self.awaited.get_mut(&partition) {
                    awaited.updates.push(updates);
                } else if !self.server.handle_updates(partition, &updates) {
                    // Not served here: forward to the migration target or
                    // the topology owner.
                    let dest = self.forward.get(&partition).copied().or_else(|| {
                        self.topology.as_ref().and_then(|t| {
                            let owner = t.owner_of(partition);
                            (owner != ctx.id()).then_some(owner)
                        })
                    });
                    if let Some(dest) = dest {
                        let _ = ctx.send(
                            dest,
                            AgileMsg::UpdateBatch {
                                partition,
                                clock,
                                epoch,
                                updates,
                            },
                        );
                    }
                }
            }
            AgileMsg::BackupPush {
                partition,
                clock,
                deltas,
                end_of_life,
            } => {
                self.server
                    .apply_push(partition, clock, deltas, end_of_life);
            }
            AgileMsg::InstallPartition {
                partition,
                image,
                clock,
            } => {
                self.recent_installs.insert(partition);
                let awaited = self.awaited.remove(&partition).unwrap_or_default();
                if let Some(&dest) = self.forward.get(&partition) {
                    // The partition was migrated away while its image was
                    // still in flight to us: relay the true image to the
                    // new owner instead of installing it here.
                    let _ = ctx.send(
                        dest,
                        AgileMsg::InstallPartition {
                            partition,
                            image,
                            clock,
                        },
                    );
                    for updates in awaited.updates {
                        let _ = ctx.send(
                            dest,
                            AgileMsg::UpdateBatch {
                                partition,
                                clock,
                                epoch: self.worker.epoch(),
                                updates,
                            },
                        );
                    }
                } else {
                    self.install(partition, image, clock, awaited, ctx);
                }
                if self.awaited.is_empty() && self.ready_pending {
                    self.ready_pending = false;
                    let _ = ctx.send(self.controller, AgileMsg::Ready);
                }
                if self.stop_deferred && !self.must_relay_before_stopping() {
                    return false;
                }
            }
            AgileMsg::MigratePartitions {
                to,
                partitions,
                retain_as_backup,
            } => {
                // Bring backups current before the handoff so the new
                // owner's dirty tracking starts from a pushed boundary.
                if self.server.is_active() {
                    self.push_to_backups(self.last_push_min, false, ctx);
                }
                for p in &partitions {
                    // If our own image for this partition is still in
                    // flight, exporting now would hand off an empty
                    // store: the forward entry makes the pending install
                    // relay the true image on arrival.
                    if !self.awaited.contains_key(p) {
                        self.ship_serving(*p, to, ctx);
                    }
                    self.forward.insert(*p, to);
                }
                // Recompute roles: stop serving the moved partitions,
                // optionally retaining them as backup copies.
                let new_serve: Vec<PartitionId> = self
                    .server
                    .served_partitions()
                    .into_iter()
                    .filter(|p| !partitions.contains(p))
                    .collect();
                // Current backup set is whatever the server already backs
                // up, plus (optionally) the migrated partitions.
                let mut new_backup: Vec<PartitionId> = (0..self.server.layout().count())
                    .map(PartitionId)
                    .filter(|p| self.server.backs_up(*p))
                    .collect();
                if retain_as_backup {
                    new_backup.extend(partitions.iter().copied());
                }
                new_backup.sort();
                new_backup.dedup();
                let was_active = self.server.is_active();
                self.server.reconfigure(&new_serve, &new_backup, was_active);
            }
            AgileMsg::DrainToBackup => {
                self.push_to_backups(self.last_push_min, true, ctx);
                self.server.reconfigure(&[], &[], false);
            }
            AgileMsg::BackupClockQuery => {
                let min_clock = self
                    .server
                    .backup_consistent_clock()
                    .unwrap_or(self.last_push_min);
                let _ = ctx.send(from, AgileMsg::BackupClockInfo { min_clock });
            }
            AgileMsg::RecoverPartitions {
                partitions,
                new_owner,
                clock,
            } => {
                let missing: BTreeSet<PartitionId> = partitions
                    .iter()
                    .copied()
                    .filter(|p| self.awaited.contains_key(p))
                    .collect();
                if missing.is_empty() {
                    self.recover_to(&partitions, new_owner, clock, ctx);
                } else {
                    // Some named partition's backup fill is still in
                    // flight to this node (a repair raced the next
                    // failure). Exporting now would ship an empty
                    // image; run once the fills land.
                    self.pending_recovers
                        .push((partitions, new_owner, clock, missing));
                }
            }
            AgileMsg::ReplicateBackup { partitions, to } => {
                for p in partitions {
                    if let Some(awaited) = self.awaited.get_mut(&p) {
                        // Our own serving image is still in flight.
                        awaited.replicas.push(to);
                    } else if let Some(&dest) = self.forward.get(&p) {
                        // Migrated away: the new owner holds the state.
                        let _ = ctx.send(
                            dest,
                            AgileMsg::ReplicateBackup {
                                partitions: vec![p],
                                to,
                            },
                        );
                    } else {
                        self.replicate_one(p, to, ctx);
                    }
                }
            }
            AgileMsg::RestartFrom { clock, epoch } => {
                // Recovery reinstalls every serving partition from the
                // rolled-back backups (the `Configure` behind this says
                // which); images of the old epoch still in flight are
                // moot, and their senders may be the machines that died.
                // So is the work waiting on them: an update buffered in
                // the old epoch applied to a recovery image would
                // double-apply a rolled-back iteration on redo.
                self.awaited.clear();
                self.last_push_min = clock;
                self.worker.restart_from(clock, epoch);
            }
            AgileMsg::ExportPartition { partition } => match self.awaited.get_mut(&partition) {
                Some(awaited) => awaited.exports.push(from),
                None => self.ship_serving(partition, from, ctx),
            },
            // Controller-only traffic; harmless if misdelivered.
            AgileMsg::Hello { .. }
            | AgileMsg::Ready
            | AgileMsg::ClockDone { .. }
            | AgileMsg::BackupClockInfo { .. }
            | AgileMsg::EvictionNotice { .. }
            | AgileMsg::Cmd(_) => {}
        }
        true
    }

    /// Installs the image of `partition` that landed here, then runs
    /// the work that waited for it: the buffered updates, the exports,
    /// the replicas, and any recovery whose last missing fill this was.
    fn install(
        &mut self,
        partition: PartitionId,
        image: Values,
        clock: u64,
        awaited: Awaited,
        ctx: &mut SimCtx<'_, AgileMsg>,
    ) {
        self.server.install_image(partition, image, clock);
        for updates in &awaited.updates {
            self.server.handle_updates(partition, updates);
        }
        for requester in awaited.exports {
            self.ship_serving(partition, requester, ctx);
        }
        for to in awaited.replicas {
            self.replicate_one(partition, to, ctx);
        }
        for (parts, new_owner, at, mut missing) in std::mem::take(&mut self.pending_recovers) {
            missing.remove(&partition);
            if missing.is_empty() {
                self.recover_to(&parts, new_owner, at, ctx);
            } else {
                self.pending_recovers.push((parts, new_owner, at, missing));
            }
        }
    }

    /// Ships the serving image of `p` to `to`.
    fn ship_serving(&mut self, p: PartitionId, to: NodeId, ctx: &mut SimCtx<'_, AgileMsg>) {
        let image = self.server.export_serving(p);
        let _ = ctx.send(
            to,
            AgileMsg::InstallPartition {
                partition: p,
                image,
                clock: self.last_push_min,
            },
        );
    }

    /// Ships a full serving image of `p` to `to`, the partition's fresh
    /// BackupPS (reliable-tier repair). The image bakes in whatever
    /// dirty deltas have accumulated since the last push, so the local
    /// dirty aggregate is discarded — pushing it later would apply those
    /// deltas twice at the new backup.
    fn replicate_one(&mut self, p: PartitionId, to: NodeId, ctx: &mut SimCtx<'_, AgileMsg>) {
        self.ship_serving(p, to, ctx);
        self.server.discard_dirty(p);
    }

    /// Rolls the backup store to `clock` and ships recovery images of
    /// `partitions` to `new_owner`.
    fn recover_to(
        &mut self,
        partitions: &[PartitionId],
        new_owner: NodeId,
        clock: u64,
        ctx: &mut SimCtx<'_, AgileMsg>,
    ) {
        self.server.backup_rollback_to(clock);
        for p in partitions {
            let image = self.server.export_backup(*p);
            let _ = ctx.send(
                new_owner,
                AgileMsg::InstallPartition {
                    partition: *p,
                    image,
                    clock,
                },
            );
        }
    }

    /// Whether any migrated-away partition's inbound image is still in
    /// flight to this node — stopping before relaying it would destroy
    /// the only serving copy.
    fn must_relay_before_stopping(&self) -> bool {
        self.awaited.keys().any(|p| self.forward.contains_key(p))
    }

    /// Streams the coalesced dirty deltas of every served partition to
    /// its backup owner.
    fn push_to_backups(&mut self, clock: u64, end_of_life: bool, ctx: &mut SimCtx<'_, AgileMsg>) {
        let Some(topo) = self.topology.clone() else {
            return;
        };
        let served = self.server.served_partitions();
        let mut pushed: BTreeMap<PartitionId, Values> =
            self.server.take_push().into_iter().collect();
        for p in served {
            let deltas = pushed.remove(&p).unwrap_or_default();
            if deltas.is_empty() && !end_of_life {
                continue;
            }
            if let Some(backup) = topo.backup_of(p) {
                let _ = ctx.send(
                    backup,
                    AgileMsg::BackupPush {
                        partition: p,
                        clock,
                        deltas,
                        end_of_life,
                    },
                );
            }
        }
    }

    /// Drives the worker and dispatches whatever it wants sent.
    fn progress_worker(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        let Some(topo) = self.topology.clone() else {
            return;
        };
        let out = self.worker.poll(&topo);
        self.dispatch(out, ctx);
    }

    /// Sends worker outbox messages, feeding send failures (evicted
    /// destinations) back into the worker so it never deadlocks.
    fn dispatch(&mut self, out: Vec<(NodeId, AgileMsg)>, ctx: &mut SimCtx<'_, AgileMsg>) {
        let mut queue: VecDeque<(NodeId, AgileMsg)> = out.into();
        while let Some((dst, msg)) = queue.pop_front() {
            let failed_token = match &msg {
                AgileMsg::ReadReq { token, .. } => Some(*token),
                _ => None,
            };
            if ctx.send(dst, msg).is_err() {
                if let (Some(token), Some(topo)) = (failed_token, self.topology.clone()) {
                    let more = self.worker.on_read_failed(dst, token, &topo);
                    queue.extend(more);
                }
                // Failed updates/clocks are dropped: updates are lost work
                // (tolerated), ClockDone to the controller cannot fail
                // while the job is alive.
            }
        }
    }
}

impl<A: MlApp> SimNode<AgileMsg> for NodeState<A> {
    /// A freshly booted machine introduces itself to the controller.
    fn on_start(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        let class = ctx.class();
        let _ = ctx.send(self.controller, AgileMsg::Hello { class });
    }

    fn on_message(&mut self, ctx: &mut SimCtx<'_, AgileMsg>, from: NodeId, msg: AgileMsg) {
        if !self.handle(from, msg, ctx) {
            ctx.stop();
        }
    }

    /// The one heavy handler is the read response that lets a worker
    /// run `process` over its data; everything else files messages.
    fn compute_hint(&self, _from: NodeId, msg: &AgileMsg) -> u64 {
        match msg {
            AgileMsg::ReadResp { token, .. } => self.worker.pass_work(*token),
            _ => 0,
        }
    }

    fn on_control(&mut self, ctx: &mut SimCtx<'_, AgileMsg>, ctrl: Control) {
        match ctrl {
            // Relay the provider's warning so the controller drains this
            // node even when no driver forwards the eviction.
            Control::EvictionWarning { deadline_ms } => {
                let _ = ctx.send(self.controller, AgileMsg::EvictionNotice { deadline_ms });
            }
            Control::Kill => ctx.stop(),
        }
    }
}

/// Every path on which a node defers work until a partition image
/// lands, one test each: a real `NodeState` on a cluster whose
/// controller and peers record what reaches them, so each step checks
/// the node's exact sends, in order.
#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
    use proteus_ps::{DenseVec, ParamKey};
    use proteus_simnet::{FnNode, NodeClass, SimCluster};

    use super::*;
    use crate::msg::NodeAssignment;
    use crate::stage::Stage;

    const CTL: NodeId = NodeId(0);
    const NODE: NodeId = NodeId(1);
    /// Where images come from (a migration source, a repair fill).
    const SRC: NodeId = NodeId(2);
    /// Where the node ships images to (a new owner, a new backup).
    const DST: NodeId = NodeId(3);

    fn name(id: NodeId) -> &'static str {
        match id {
            CTL => "ctl",
            SRC => "src",
            DST => "dst",
            _ => "?",
        }
    }

    fn rows(v: &Values) -> String {
        let row = |(k, x): (ParamKey, &[f32])| {
            let x: Vec<String> = x.iter().map(f32::to_string).collect();
            format!("{}:{}", k.0, x.join(","))
        };
        v.iter().map(row).collect::<Vec<_>>().join(" ")
    }

    /// One line per message a recording node received.
    fn show(to: NodeId, msg: &AgileMsg) -> String {
        let what = match msg {
            AgileMsg::InstallPartition {
                partition,
                image,
                clock,
            } => format!("Install p{} @{clock} [{}]", partition.0, rows(image)),
            AgileMsg::UpdateBatch {
                partition,
                clock,
                epoch,
                updates,
            } => format!(
                "Update p{} @{clock} e{epoch} [{}]",
                partition.0,
                rows(updates)
            ),
            other => format!("{other:?}"),
        };
        format!("{} {what}", name(to))
    }

    fn values(rows: &[(u64, f32)]) -> Values {
        (rows.iter())
            .map(|&(k, x)| (ParamKey(k), DenseVec::from(vec![x])))
            .collect()
    }

    fn parts(ps: &[u32]) -> Vec<PartitionId> {
        ps.iter().copied().map(PartitionId).collect()
    }

    /// Duties over two partitions (keys 0 and 2 in p0, 1 in p1) that the
    /// topology places on the node under test; no data blocks, so its
    /// worker stays silent.
    fn configure(serve: &[u32], backup: &[u32], await_installs: &[u32], epoch: u64) -> AgileMsg {
        AgileMsg::Configure(Box::new(NodeAssignment {
            serve_partitions: parts(serve),
            backup_partitions: parts(backup),
            is_active_ps: false,
            data_blocks: Vec::new(),
            await_installs: parts(await_installs),
            topology: Arc::new(Topology {
                version: 1,
                stage: Stage::Stage1,
                partition_owner: vec![NODE; 2],
                backup_owner: vec![None; 2],
                workers: Vec::new(),
            }),
            resume_clock: 0,
            epoch,
        }))
    }

    fn install(p: u32, clock: u64, image: &[(u64, f32)]) -> AgileMsg {
        AgileMsg::InstallPartition {
            partition: PartitionId(p),
            image: values(image),
            clock,
        }
    }

    fn update(p: u32, epoch: u64, updates: &[(u64, f32)]) -> AgileMsg {
        AgileMsg::UpdateBatch {
            partition: PartitionId(p),
            clock: 0,
            epoch,
            updates: values(updates),
        }
    }

    fn export(p: u32) -> AgileMsg {
        AgileMsg::ExportPartition {
            partition: PartitionId(p),
        }
    }

    fn migrate(ps: &[u32], to: NodeId) -> AgileMsg {
        AgileMsg::MigratePartitions {
            to,
            partitions: parts(ps),
            retain_as_backup: false,
        }
    }

    /// The node under test between a recording controller, `SRC` and
    /// `DST`.
    struct Bench {
        sim: SimCluster<AgileMsg>,
        received: Arc<Mutex<Vec<String>>>,
    }

    impl Bench {
        fn new() -> Self {
            let received = Arc::new(Mutex::new(Vec::new()));
            let recorder = || {
                let received = Arc::clone(&received);
                // What the harness sends it, the node relays to the node
                // under test as its own; everything else it records.
                FnNode::new(move |ctx: &mut SimCtx<'_, AgileMsg>, from, msg| {
                    if from == NodeId::HARNESS {
                        let _ = ctx.send(NODE, msg);
                    } else {
                        received.lock().unwrap().push(show(ctx.id(), &msg));
                    }
                })
            };
            let mut sim = SimCluster::new();
            sim.add_node(NodeClass::Reliable, recorder());
            let app = Arc::new(MatrixFactorization::new(MfConfig {
                rows: 2,
                cols: 2,
                rank: 1,
                learning_rate: 0.1,
                reg: 0.0,
                init_scale: 0.1,
            }));
            let cfg = AgileConfig {
                partitions: 2,
                ..AgileConfig::default()
            };
            let blocks = Arc::new(BlockKeys::new(0, 1));
            let node = NodeState::new(NODE, CTL, app, Arc::new(Vec::new()), blocks, cfg);
            sim.add_node(NodeClass::Transient, node);
            sim.add_node(NodeClass::Transient, recorder());
            sim.add_node(NodeClass::Transient, recorder());
            sim.run_until_idle();
            let mut bench = Bench { sim, received };
            assert_eq!(bench.sent(), ["ctl Hello { class: Transient }"]);
            bench
        }

        /// What reached the recording nodes since the last call.
        fn sent(&mut self) -> Vec<String> {
            std::mem::take(&mut *self.received.lock().unwrap())
        }

        /// Delivers each step's message from its sender and checks that
        /// the node then sent exactly the step's lines, in order.
        fn run(&mut self, steps: &[(NodeId, AgileMsg, &[&str])]) {
            for (i, (from, msg, want)) in steps.iter().enumerate() {
                self.sim.send_as_harness(*from, msg.clone()).unwrap();
                self.sim.run_until_idle();
                assert_eq!(self.sent(), *want, "step {i}: {msg:?}");
            }
        }
    }

    #[test]
    fn an_image_that_lands_before_its_configure_is_not_awaited() {
        Bench::new().run(&[
            (SRC, install(0, 0, &[(0, 1.0)]), &[]),
            (CTL, configure(&[0], &[], &[0], 0), &["ctl Ready"]),
            (CTL, export(0), &["ctl Install p0 @0 [0:1]"]),
        ]);
    }

    #[test]
    fn updates_buffered_for_an_awaited_image_are_applied_when_it_lands() {
        Bench::new().run(&[
            (CTL, configure(&[0], &[], &[0], 0), &[]),
            (SRC, update(0, 0, &[(0, 0.5), (2, 1.0)]), &[]),
            (SRC, install(0, 0, &[(0, 1.0), (2, 0.0)]), &["ctl Ready"]),
            (CTL, export(0), &["ctl Install p0 @0 [0:1.5 2:1]"]),
        ]);
    }

    #[test]
    fn an_export_waits_for_the_migration_image_and_its_updates() {
        Bench::new().run(&[
            (CTL, configure(&[0], &[], &[0], 0), &[]),
            (SRC, update(0, 0, &[(0, 0.5)]), &[]),
            (CTL, export(0), &[]),
            (
                SRC,
                install(0, 0, &[(0, 1.0)]),
                &["ctl Install p0 @0 [0:1.5]", "ctl Ready"],
            ),
        ]);
    }

    #[test]
    fn a_replica_waits_for_the_serving_image() {
        let replicate = AgileMsg::ReplicateBackup {
            partitions: parts(&[0]),
            to: DST,
        };
        Bench::new().run(&[
            (CTL, configure(&[0], &[], &[0], 0), &[]),
            (SRC, update(0, 0, &[(0, 0.5)]), &[]),
            (CTL, replicate, &[]),
            (
                SRC,
                install(0, 0, &[(0, 1.0)]),
                &["dst Install p0 @0 [0:1.5]", "ctl Ready"],
            ),
        ]);
    }

    #[test]
    fn a_recover_waits_for_its_last_backup_fill() {
        let recover = AgileMsg::RecoverPartitions {
            partitions: parts(&[0, 1]),
            new_owner: DST,
            clock: 3,
        };
        Bench::new().run(&[
            (CTL, configure(&[], &[0, 1], &[0, 1], 0), &[]),
            (CTL, recover, &[]),
            (SRC, install(0, 3, &[(0, 1.0)]), &[]),
            (
                SRC,
                install(1, 3, &[(1, 2.0)]),
                &[
                    "dst Install p0 @3 [0:1]",
                    "dst Install p1 @3 [1:2]",
                    "ctl Ready",
                ],
            ),
        ]);
    }

    #[test]
    fn a_migration_chain_relays_the_image_and_its_updates() {
        Bench::new().run(&[
            (CTL, configure(&[0], &[], &[0], 0), &[]),
            (SRC, update(0, 0, &[(0, 0.5)]), &[]),
            (CTL, migrate(&[0], DST), &[]),
            (
                SRC,
                install(0, 4, &[(0, 1.0)]),
                &[
                    "dst Install p0 @4 [0:1]",
                    "dst Update p0 @4 e0 [0:0.5]",
                    "ctl Ready",
                ],
            ),
            (
                SRC,
                update(0, 0, &[(0, 0.25)]),
                &["dst Update p0 @0 e0 [0:0.25]"],
            ),
        ]);
    }

    #[test]
    fn a_stop_waits_until_the_relay_drains() {
        let mut bench = Bench::new();
        bench.run(&[
            (CTL, configure(&[0], &[], &[0], 0), &[]),
            (CTL, migrate(&[0], DST), &[]),
            (CTL, AgileMsg::Stop, &[]),
        ]);
        assert!(bench.sim.alive(NODE), "stopped with a relay still owed");
        bench.run(&[(
            SRC,
            install(0, 0, &[(0, 1.0)]),
            &["dst Install p0 @0 [0:1]", "ctl Ready"],
        )]);
        assert!(
            !bench.sim.alive(NODE),
            "the relay drained, so the stop holds"
        );
    }

    /// Recovery rolls back past an update buffered for an image that was
    /// still in flight: applied to the recovery image, it would count a
    /// rolled-back iteration twice.
    #[test]
    fn a_restart_forgets_updates_buffered_in_the_old_epoch() {
        Bench::new().run(&[
            (CTL, configure(&[0], &[], &[0], 0), &[]),
            (SRC, update(0, 0, &[(0, 0.5)]), &[]),
            (CTL, AgileMsg::RestartFrom { clock: 0, epoch: 1 }, &[]),
            (CTL, configure(&[0], &[], &[0], 1), &[]),
            (SRC, install(0, 0, &[(0, 1.0)]), &["ctl Ready"]),
            (CTL, export(0), &["ctl Install p0 @0 [0:1]"]),
        ]);
    }
}
