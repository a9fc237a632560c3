//! The reliable tier losing machines: a warned one drains while it is
//! still alive, a dead one's backups are re-replicated from the live
//! serving copies — both in-job, without a restart from a checkpoint
//! (paper Sec. 3.3's tiered reliability, extended to partial
//! reliable-tier loss).

use std::collections::{BTreeMap, BTreeSet};

use proteus_mlapps::app::MlApp;
use proteus_ps::PartitionId;
use proteus_simnet::{NodeId, SimCtx};

use super::layout::{Awaits, Layout};
use super::{Controller, Pending};
use crate::events::JobEvent;
use crate::msg::AgileMsg;

impl<A: MlApp> Controller<A> {
    /// Gives each of `parts` a new BackupPS — the least-backed reliable
    /// survivor — to be filled from `source(p)`. Records the fills in
    /// flight and what each destination awaits; returns the partitions
    /// grouped `(source, destination)`.
    fn plan_fills(
        &mut self,
        parts: &[PartitionId],
        source: impl Fn(&Layout, PartitionId) -> NodeId,
        awaits: &mut Awaits,
    ) -> BTreeMap<(NodeId, NodeId), Vec<PartitionId>> {
        let mut by_pair: BTreeMap<(NodeId, NodeId), Vec<PartitionId>> = BTreeMap::new();
        for &p in parts {
            let Some(dst) = self.layout.rebackup(p) else {
                continue;
            };
            let src = source(&self.layout, p);
            self.filling.insert(p, (src, dst));
            by_pair.entry((src, dst)).or_default().push(p);
            awaits.entry(dst).or_default().push(p);
        }
        by_pair
    }

    /// Gates later commands on the fills into `filled` landing — a
    /// recovery quorum run before a fresh backup installs its fill
    /// would read a meaningless zero clock from it — and reports the
    /// repair once they have.
    pub(super) fn await_fills(
        &mut self,
        nodes: Vec<NodeId>,
        partitions: u64,
        filled: BTreeSet<NodeId>,
    ) {
        if filled.is_empty() {
            self.emit(JobEvent::ReliableRepaired { nodes, partitions });
        } else {
            self.pending_ready = filled;
            self.pending = Some(Pending::ReliableRepair { nodes, partitions });
        }
    }

    /// Whether warned reliable victims can drain in-job: at least one
    /// reliable survivor must remain to absorb their state, and no
    /// victim may be mid-protocol (an unacknowledged outbound migration
    /// or an in-flight backup fill touching it cannot be handed over
    /// consistently within the warning window).
    pub(super) fn reliable_drainable(
        &self,
        reliable_victims: &[NodeId],
        transient_victims: &[NodeId],
    ) -> bool {
        let doomed = |n: &NodeId| reliable_victims.contains(n) || transient_victims.contains(n);
        let survives = |n: &NodeId| !doomed(n) && !self.layout.known_dead.contains(n);
        self.layout.reliable().iter().any(survives)
            && !self.migrations.keys().any(doomed)
            && !(self.filling.values()).any(|(src, dst)| doomed(src) || doomed(dst))
    }

    /// Hands a warned reliable machine's state over (it has already
    /// left the roster): serving partitions (stage 1) migrate to the
    /// least-loaded reliable survivor; backup partitions re-replicate
    /// out of the victim's own backup store at the current broadcast
    /// floor. Returns the number of backup fills ordered.
    pub(super) fn drain_reliable(
        &mut self,
        ctx: &mut SimCtx<'_, AgileMsg>,
        victim: NodeId,
        awaits: &mut Awaits,
    ) -> u64 {
        if let Some((to, parts)) = self.layout.hand_over_serving(victim) {
            self.migrate(ctx, (victim, to), parts, false, awaits);
        }
        let backed = self.layout.backed_by(victim);
        let mut fills = 0;
        for ((_, new_owner), partitions) in self.plan_fills(&backed, |_, _| victim, awaits) {
            fills += partitions.len() as u64;
            let _ = ctx.send(
                victim,
                AgileMsg::RecoverPartitions {
                    partitions,
                    new_owner,
                    clock: self.last_min_broadcast,
                },
            );
        }
        fills
    }

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
    pub(super) fn try_repair_reliable(
        &mut self,
        reliable_victims: &[NodeId],
        victims: &[NodeId],
        ctx: &mut SimCtx<'_, AgileMsg>,
    ) -> bool {
        let layout = &self.layout;
        let doomed = |n: &NodeId| victims.contains(n) || layout.known_dead.contains(n);
        if layout.reliable().iter().all(doomed) {
            return false;
        }
        // Victims holding serving state (stage 1 ParamServs, or a
        // transient ActivePS dying in the same batch) or mid-migration
        // sources cannot be repaired by re-replication: the only
        // serving copy is gone or in flight from a corpse.
        let serving = |v: &NodeId| layout.partition_owner.contains(v);
        if victims
            .iter()
            .any(|v| serving(v) || self.migrations.contains_key(v))
        {
            return false;
        }
        // Every orphaned backup partition needs a live serving owner to
        // re-replicate from.
        let orphaned: Vec<PartitionId> = (reliable_victims.iter())
            .flat_map(|v| layout.backed_by(*v))
            .collect();
        let owner_of = |layout: &Layout, p: PartitionId| layout.partition_owner[p.0 as usize];
        let live = |n: NodeId| layout.members.contains_key(&n) && !doomed(&n);
        if !orphaned.iter().all(|p| live(owner_of(layout, *p))) {
            return false;
        }

        // Repairable. Losing reliable nodes can only raise the
        // transient:reliable ratio, so the stage may flip 2→3 (never
        // toward stage 1).
        self.drop_members(victims);
        let old_stage = self.layout.stage;
        self.layout.stage = self.layout.pick_stage();

        // Ship the fills BEFORE the reconfiguration below: per-sender
        // FIFO makes each owner export its serving image (folding in
        // unpushed deltas) before it sees the new topology and starts
        // streaming incremental pushes to the fresh backup.
        let mut awaits = Awaits::new();
        for ((owner, to), partitions) in self.plan_fills(&orphaned, owner_of, &mut awaits) {
            let _ = ctx.send(owner, AgileMsg::ReplicateBackup { partitions, to });
        }

        self.layout.release_blocks(victims, true);
        self.resync_worker_clocks();
        // Fill destinations gate their `Ready` on the awaited installs
        // (on top of whatever migration images they are still owed: a
        // node adds to what it awaits, never forgets).
        let topo = self.reconfigure(ctx, &awaits);
        self.resume(ctx, topo);
        self.note_stage_change(old_stage);
        let filled = awaits.keys().copied().collect();
        self.await_fills(reliable_victims.to_vec(), orphaned.len() as u64, filled);
        self.maybe_broadcast_min(ctx);
        true
    }
}
