//! Departures with notice: the provider's eviction warning, and the
//! forecaster's pre-drain ahead of one.

use proteus_mlapps::app::MlApp;
use proteus_simnet::{NodeClass, NodeId, SimCtx};

use super::layout::{Awaits, Rehome};
use super::Controller;
use crate::error::JobFault;
use crate::events::JobEvent;
use crate::msg::AgileMsg;

impl<A: MlApp> Controller<A> {
    /// Takes `from`'s ActivePS role away and moves the partitions it
    /// serves where the layout decides: migrated to another transient
    /// host, or drained to their BackupPS copies. Returns how many
    /// partitions found a new home.
    fn rehome_active(
        &mut self,
        ctx: &mut SimCtx<'_, AgileMsg>,
        from: NodeId,
        suspects: &[NodeId],
        awaits: &mut Awaits,
    ) -> u64 {
        self.layout.active_hosts.remove(&from);
        let parts = self.layout.owned_by(from);
        if parts.is_empty() {
            return 0;
        }
        let count = parts.len();
        let moved = match self.layout.rehome(&parts, suspects) {
            Rehome::Migrate { to } => {
                self.migrate(ctx, (from, to), parts, false, awaits);
                count
            }
            Rehome::ServeFromBackup { lost } => {
                let _ = ctx.send(from, AgileMsg::DrainToBackup);
                let promoted = count - lost.len();
                self.report_lost(lost);
                promoted
            }
        };
        moved as u64
    }

    pub(super) fn handle_eviction(&mut self, nodes: Vec<NodeId>, ctx: &mut SimCtx<'_, AgileMsg>) {
        let (victims, reliable_victims): (Vec<NodeId>, Vec<NodeId>) = nodes
            .into_iter()
            .filter(|n| self.layout.members.contains_key(n))
            .partition(|n| self.layout.members.get(n) == Some(&NodeClass::Transient));
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
                self.fault(JobFault::ReliableNodesEvicted {
                    nodes: reliable_victims,
                });
            }
        }
        let all_victims = [victims.clone(), drained_reliable.clone()].concat();
        if all_victims.is_empty() {
            // Nothing to do (unknown or already-gone nodes); report the
            // no-op so drivers waiting on the eviction don't hang.
            self.emit(JobEvent::NodesEvicted { nodes: Vec::new() });
            return;
        }

        let old_stage = self.layout.stage;
        let victim_actives: Vec<NodeId> = (victims.iter().copied())
            .filter(|v| self.layout.active_hosts.contains(v))
            .collect();
        self.drop_members(&all_victims);
        let new_stage = self.layout.pick_stage();
        // Partitions in flight to each surviving new owner. The
        // eviction itself does not gate on the resulting `Ready`s.
        let mut awaits = Awaits::new();

        if old_stage.uses_backups() && !new_stage.uses_backups() {
            // Full fall-back to stage 1: every ActivePS (evicted or not)
            // drains to its backup, then backups promote to ParamServs.
            for a in victim_actives.iter().chain(&self.layout.active_hosts) {
                let _ = ctx.send(*a, AgileMsg::DrainToBackup);
            }
            let lost = self.layout.fall_back_to_stage1();
            self.report_lost(lost);
        } else if old_stage.uses_backups() {
            for victim in victim_actives {
                self.rehome_active(ctx, victim, &[], &mut awaits);
            }
        } else {
            // Stage 1: parameter state lives on reliable nodes; evicted
            // transient nodes are workers only.
            debug_assert!(victims
                .iter()
                .all(|v| !self.layout.partition_owner.contains(v)));
        }
        self.layout.stage = new_stage;

        // Warned reliable victims hand over while they are still alive.
        // Per-sender FIFO orders all their exports before the `Stop`
        // below, so the warning window is spent exactly on this drain.
        let mut fills = 0;
        for victim in &drained_reliable {
            fills += self.drain_reliable(ctx, *victim, &mut awaits);
        }

        self.layout.release_blocks(&all_victims, true);
        // Reliable workers leave the barrier on 2→3 flips and rejoin it
        // on 3→2 flips.
        self.resync_worker_clocks();
        let topo = self.reconfigure(ctx, &awaits);
        self.resume(ctx, topo);
        // Victims stop after their drain/migration work (per-sender
        // FIFO guarantees ordering).
        for v in &all_victims {
            let _ = ctx.send(*v, AgileMsg::Stop);
        }

        self.note_stage_change(old_stage);
        self.emit(JobEvent::NodesEvicted { nodes: all_victims });
        if !drained_reliable.is_empty() {
            let filled = (self.filling.values())
                .filter(|(src, _)| drained_reliable.contains(src))
                .map(|(_, dst)| *dst)
                .collect();
            self.await_fills(drained_reliable, fills, filled);
        }
        self.maybe_broadcast_min(ctx);
    }

    /// Proactive demotion on a forecast alert: move the suspects'
    /// ActivePS partitions to safer transient hosts (or drain to the
    /// BackupPS copies when none exists) while the suspects *keep
    /// working*. Membership, stage, and worker clocks are untouched, so
    /// a false-positive forecast costs only the migration traffic; if
    /// the eviction does land, the suspects own nothing and the warned
    /// drain is trivial.
    pub(super) fn handle_predrain(&mut self, nodes: Vec<NodeId>, ctx: &mut SimCtx<'_, AgileMsg>) {
        // Only live transient members can be demoted; reliable nodes are
        // never evicted (paper Sec. 2) and unknown nodes are stale alerts.
        let suspects: Vec<NodeId> = (nodes.into_iter())
            .filter(|n| self.layout.members.get(n) == Some(&NodeClass::Transient))
            .filter(|n| !self.layout.known_dead.contains(n))
            .collect();
        // Stage 1 keeps all parameter state on the reliable tier, and a
        // suspect without an ActivePS is only a worker: both are
        // already safe.
        let suspect_actives: Vec<NodeId> = (suspects.iter().copied())
            .filter(|n| self.layout.is_active_ps(*n))
            .collect();
        if suspect_actives.is_empty() {
            // Report the no-op so drivers waiting on the pre-drain
            // don't hang.
            self.emit(JobEvent::NodesPreDrained {
                nodes: suspects,
                partitions: 0,
            });
            return;
        }

        // The suspects stay in the worker set with their clocks — only
        // serving roles change, and their in-flight images are tracked
        // so a suspect dying mid-handover triggers the same rollback as
        // any interrupted migration.
        let mut awaits = Awaits::new();
        let mut moved = 0;
        for suspect in suspect_actives {
            moved += self.rehome_active(ctx, suspect, &suspects, &mut awaits);
        }
        let topo = self.reconfigure(ctx, &awaits);
        self.resume(ctx, topo);
        self.emit(JobEvent::NodesPreDrained {
            nodes: suspects,
            partitions: moved,
        });
        self.maybe_broadcast_min(ctx);
    }
}
