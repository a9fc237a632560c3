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

/// All mutable state of one node.
pub(crate) struct NodeState<A: MlApp> {
    server: ServerState,
    worker: WorkerState<A>,
    topology: Option<Arc<Topology>>,
    /// Partitions migrated away: destination for late traffic.
    forward: BTreeMap<PartitionId, NodeId>,
    /// Partitions whose images are still in flight.
    awaiting: BTreeSet<PartitionId>,
    /// Images that landed since the last `Configure` — a migrated image
    /// can outrace the `Configure` naming it (different senders), and a
    /// node must not wait for an install it already has.
    recent_installs: BTreeSet<PartitionId>,
    /// Whether a `Ready` is owed once `awaiting` drains.
    ready_pending: bool,
    /// Updates buffered for partitions in `awaiting`.
    pending_updates: Vec<(PartitionId, Values)>,
    /// A `Stop` arrived while migrated-away partitions still awaited
    /// their inbound images (we must relay them to the new owner, or the
    /// only copy dies with us). Honored once the relays drain.
    stop_deferred: bool,
    /// Export requests deferred until the awaited image arrives.
    pending_exports: Vec<(PartitionId, NodeId)>,
    /// Backup re-replications deferred until the awaited serving image
    /// arrives (a repair can target a partition this node is itself
    /// still receiving mid-migration). Kept separate from
    /// `pending_exports`: a replica ships *after* buffered updates are
    /// applied and must also discard the dirty aggregate.
    pending_replicas: Vec<(PartitionId, NodeId)>,
    /// `RecoverPartitions` requests deferred because some named
    /// partition's backup fill is still in flight to this node
    /// (correlated kills can race a repair fill with the next
    /// recovery). `(partitions, new_owner, clock, still-missing)`.
    pending_recovers: Vec<(Vec<PartitionId>, NodeId, u64, BTreeSet<PartitionId>)>,
    epoch: u64,
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
            awaiting: BTreeSet::new(),
            recent_installs: BTreeSet::new(),
            ready_pending: false,
            pending_updates: Vec::new(),
            stop_deferred: false,
            pending_exports: Vec::new(),
            pending_replicas: Vec::new(),
            pending_recovers: Vec::new(),
            epoch: 0,
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
                    self.epoch = assign.epoch;
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
                self.awaiting.extend(assign.await_installs.iter().copied());
                for p in std::mem::take(&mut self.recent_installs) {
                    self.awaiting.remove(&p);
                }
                if self.awaiting.is_empty() {
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
                if epoch == self.epoch && self.server.is_active() && min > self.last_push_min {
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
                if epoch < self.epoch {
                    return true; // Stale pre-recovery traffic.
                }
                if self.awaiting.contains(&partition) {
                    self.pending_updates.push((partition, updates));
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
                if let Some(&dest) = self.forward.get(&partition) {
                    // The partition was migrated away while its image was
                    // still in flight to us: relay the true image to the
                    // new owner instead of installing it here.
                    self.awaiting.remove(&partition);
                    let _ = ctx.send(
                        dest,
                        AgileMsg::InstallPartition {
                            partition,
                            image,
                            clock,
                        },
                    );
                    let buffered: Vec<(PartitionId, Values)> =
                        std::mem::take(&mut self.pending_updates);
                    for (p, updates) in buffered {
                        if p == partition {
                            let _ = ctx.send(
                                dest,
                                AgileMsg::UpdateBatch {
                                    partition: p,
                                    clock,
                                    epoch: self.epoch,
                                    updates,
                                },
                            );
                        } else {
                            self.pending_updates.push((p, updates));
                        }
                    }
                    if self.awaiting.is_empty() && self.ready_pending {
                        self.ready_pending = false;
                        let _ = ctx.send(self.controller, AgileMsg::Ready);
                    }
                    return !self.stop_deferred || self.must_relay_before_stopping();
                }
                self.server.install_image(partition, image, clock);
                self.awaiting.remove(&partition);
                // Apply updates buffered while the image was in flight.
                let buffered: Vec<(PartitionId, Values)> =
                    std::mem::take(&mut self.pending_updates);
                for (p, updates) in buffered {
                    if p == partition {
                        self.server.handle_updates(p, &updates);
                    } else {
                        self.pending_updates.push((p, updates));
                    }
                }
                // Serve exports that were waiting for this image.
                let deferred: Vec<(PartitionId, NodeId)> =
                    std::mem::take(&mut self.pending_exports);
                for (p, requester) in deferred {
                    if p == partition {
                        let image = self.server.export_serving(p);
                        let _ = ctx.send(
                            requester,
                            AgileMsg::InstallPartition {
                                partition: p,
                                image,
                                clock: self.last_push_min,
                            },
                        );
                    } else {
                        self.pending_exports.push((p, requester));
                    }
                }
                // Ship backup replicas that were waiting for this image.
                let replicas: Vec<(PartitionId, NodeId)> =
                    std::mem::take(&mut self.pending_replicas);
                for (p, to) in replicas {
                    if p == partition {
                        self.replicate_one(p, to, ctx);
                    } else {
                        self.pending_replicas.push((p, to));
                    }
                }
                // Run recoveries whose last missing backup fill just
                // landed.
                let recovers = std::mem::take(&mut self.pending_recovers);
                for (parts, new_owner, at, mut missing) in recovers {
                    missing.remove(&partition);
                    if missing.is_empty() {
                        self.recover_to(&parts, new_owner, at, ctx);
                    } else {
                        self.pending_recovers.push((parts, new_owner, at, missing));
                    }
                }
                if self.awaiting.is_empty() && self.ready_pending {
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
                    if self.awaiting.contains(p) {
                        // Our own image for this partition is still in
                        // flight; exporting now would hand off an empty
                        // store. The forward entry makes the pending
                        // install relay the true image on arrival.
                        self.forward.insert(*p, to);
                        continue;
                    }
                    let image = self.server.export_serving(*p);
                    let _ = ctx.send(
                        to,
                        AgileMsg::InstallPartition {
                            partition: *p,
                            image,
                            clock: self.last_push_min,
                        },
                    );
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
                    .filter(|p| self.awaiting.contains(p))
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
                    if self.awaiting.contains(&p) {
                        // Our own serving image is still in flight.
                        self.pending_replicas.push((p, to));
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
                self.awaiting.clear();
                self.epoch = epoch;
                self.last_push_min = clock;
                self.worker.restart_from(clock, epoch);
            }
            AgileMsg::ExportPartition { partition } => {
                if self.awaiting.contains(&partition) {
                    // The image for this partition is still in flight
                    // (migration); answer once it lands so snapshots
                    // never observe an empty freshly-migrated partition.
                    self.pending_exports.push((partition, from));
                } else {
                    let image = self.server.export_serving(partition);
                    let _ = ctx.send(
                        from,
                        AgileMsg::InstallPartition {
                            partition,
                            image,
                            clock: self.last_push_min,
                        },
                    );
                }
            }
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

    /// Ships a full serving image of `p` to `to`, the partition's fresh
    /// BackupPS (reliable-tier repair). The image bakes in whatever
    /// dirty deltas have accumulated since the last push, so the local
    /// dirty aggregate is discarded — pushing it later would apply those
    /// deltas twice at the new backup.
    fn replicate_one(&mut self, p: PartitionId, to: NodeId, ctx: &mut SimCtx<'_, AgileMsg>) {
        let image = self.server.export_serving(p);
        self.server.discard_dirty(p);
        let _ = ctx.send(
            to,
            AgileMsg::InstallPartition {
                partition: p,
                image,
                clock: self.last_push_min,
            },
        );
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
        self.awaiting.iter().any(|p| self.forward.contains_key(p))
    }

    /// Streams the coalesced dirty deltas of every served partition to
    /// its backup owner.
    fn push_to_backups(&mut self, clock: u64, end_of_life: bool, ctx: &mut SimCtx<'_, AgileMsg>) {
        let Some(topo) = self.topology.clone() else {
            return;
        };
        let served = self.server.served_partitions();
        let mut pushed: BTreeMap<PartitionId, Values> =
            self.server.take_push(clock).into_iter().collect();
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
            Control::Shutdown | Control::Kill => ctx.stop(),
        }
    }
}
