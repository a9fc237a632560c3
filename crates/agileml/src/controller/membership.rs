//! Initial start and node addition.

use std::collections::BTreeMap;

use proteus_mlapps::app::MlApp;
use proteus_ps::{DenseVec, ParamKey, PartitionId};
use proteus_simnet::{NodeClass, NodeId, SimCtx};
use proteus_simtime::rng::seeded_stream;

use super::layout::Awaits;
use super::{Controller, Pending};
use crate::events::JobEvent;
use crate::msg::{AgileMsg, Values};

impl<A: MlApp> Controller<A> {
    /// Runs whenever membership knowledge changes: begins the initial
    /// layout or integrates added nodes once all expected `Hello`s are in.
    pub(super) fn try_progress_membership(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        let helloed = |n: &NodeId| self.helloed.contains(n);
        match &self.pending {
            Some(Pending::StartJob)
                if !self.layout.members.is_empty() && self.layout.members.keys().all(helloed) =>
            {
                self.initial_layout(ctx);
            }
            Some(Pending::AddNodes {
                added,
                configured: false,
            }) if added.iter().all(helloed) => {
                let added = added.clone();
                self.integrate_nodes(&added, ctx);
            }
            _ => {}
        }
    }

    /// Computes the first layout, configures every member, and installs
    /// the initial parameter images.
    fn initial_layout(&mut self, ctx: &mut SimCtx<'_, AgileMsg>) {
        // A re-run (a machine died before the job started) deals the
        // data blocks afresh instead of rebalancing the first deal.
        self.layout.assignment = None;
        let stage = self.layout.pick_stage();
        self.layout.place_for_stage(stage);

        // All state arrives via installs: every member awaits an image
        // of each partition it serves or backs up.
        let holdings = |n: &NodeId| [self.layout.owned_by(*n), self.layout.backed_by(*n)].concat();
        let awaits: Awaits = (self.layout.members.keys())
            .map(|n| (*n, holdings(n)))
            .collect();
        self.pending_ready = awaits.keys().copied().collect();
        self.reconfigure(ctx, &awaits);

        // The resume clock is zero on a fresh start and the
        // checkpoint's consistent clock on a restart-from-checkpoint.
        let clock = self.last_min_broadcast;
        for (partition, image) in self.initial_images() {
            let i = partition.0 as usize;
            let owner = Some(self.layout.partition_owner[i]);
            for holder in owner.into_iter().chain(self.layout.backup_owner[i]) {
                let image = image.clone();
                let _ = ctx.send(
                    holder,
                    AgileMsg::InstallPartition {
                        partition,
                        image,
                        clock,
                    },
                );
            }
        }
        self.resync_worker_clocks();
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
            let p = self.keyspace.partition_of(key);
            images.entry(p).or_default().push((key, value));
        }
        images
    }

    /// Integrates added nodes into a running job: stage recheck, ActivePS
    /// placement with migrations, data rebalance, reconfiguration.
    fn integrate_nodes(&mut self, added: &[NodeId], ctx: &mut SimCtx<'_, AgileMsg>) {
        let old_stage = self.layout.stage;
        let new_stage = self.layout.pick_stage();
        let moves = self.layout.place_for_stage(new_stage);

        let mut awaits = Awaits::new();
        for ((from, to), parts) in moves {
            // A reliable old owner handing partitions to a new ActivePS
            // retains them as the backup copy (stage 1→2 transition).
            let retain = new_stage.uses_backups()
                && self.layout.members.get(&from) == Some(&NodeClass::Reliable);
            self.migrate(ctx, (from, to), parts, retain, &mut awaits);
        }
        self.pending_ready = (self.layout.members.keys().copied())
            .filter(|n| awaits.contains_key(n) || added.contains(n))
            .collect();
        self.reconfigure(ctx, &awaits);
        self.note_stage_change(old_stage);
        // Registers the new workers, and deregisters the reliable ones
        // on a 2→3 flip.
        self.resync_worker_clocks();
        self.maybe_broadcast_min(ctx);

        if self.pending_ready.is_empty() {
            self.finish_add(added.to_vec(), ctx);
        } else {
            self.pending = Some(Pending::AddNodes {
                added: added.to_vec(),
                configured: true,
            });
        }
    }

    pub(super) fn finish_add(&mut self, added: Vec<NodeId>, ctx: &mut SimCtx<'_, AgileMsg>) {
        self.pending = None;
        let topo = self.next_topology();
        self.resume(ctx, topo);
        self.emit(JobEvent::NodesAdded { nodes: added });
        self.drain_queue(ctx);
    }
}
