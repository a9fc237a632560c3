//! Server-side state: the serving store (ParamServ / ActivePS) and the
//! backup store (BackupPS) with push-history rollback.
//!
//! One AgileML node may simultaneously *serve* some partitions (answering
//! worker reads and applying updates) and *back up* others (absorbing
//! coalesced delta pushes from ActivePSs). [`ServerState`] owns both
//! stores plus the bookkeeping that makes elasticity work:
//!
//! * per-partition dirty aggregates on the serving side, pushed to the
//!   backup at every global-clock advance and on drain;
//! * a bounded per-partition history of applied pushes on the backup
//!   side, so recovery can roll the backup to any recent clock-aligned
//!   boundary (the paper's "last consistent state", Sec. 3.3);
//! * partition moves between the two stores (promotion after a full
//!   drain, demotion when a reliable ParamServ hands its partitions to a
//!   new ActivePS and becomes its backup).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proteus_ps::{DenseVec, KeySet, ParamKey, PartitionId, PartitionMap, RowRef, ShardStore};

use crate::msg::Values;

/// How many recent pushes the backup keeps per partition for rollback.
///
/// Rollback never needs to reach further back than the staleness slack
/// plus in-flight pushes; 16 is generous for any configuration tested.
const PUSH_HISTORY: usize = 16;

/// Backup-side record for one partition.
#[derive(Debug, Clone, Default)]
struct BackupPartition {
    /// Clock of the most recent applied push.
    last_clock: u64,
    /// Recent applied pushes, oldest first, for rollback.
    pushes: VecDeque<(u64, Values)>,
    /// Whether the active stream has ended (end-of-life received).
    stream_ended: bool,
}

/// Combined serving + backup state of one node.
#[derive(Debug)]
pub struct ServerState {
    layout: PartitionMap,
    /// Serving-side store (ParamServ or ActivePS state).
    serving: ShardStore<DenseVec>,
    /// Partitions this node currently serves.
    serve_set: BTreeSet<PartitionId>,
    /// Whether served partitions stream deltas to a backup.
    is_active: bool,
    /// Backup-side store.
    backup: ShardStore<DenseVec>,
    /// Backup bookkeeping per backed-up partition.
    backup_meta: BTreeMap<PartitionId, BackupPartition>,
}

impl ServerState {
    /// Creates empty server state over the job's partition layout.
    pub fn new(layout: PartitionMap) -> Self {
        ServerState {
            layout,
            serving: ShardStore::new(layout),
            serve_set: BTreeSet::new(),
            is_active: false,
            backup: ShardStore::new(layout),
            backup_meta: BTreeMap::new(),
        }
    }

    /// The partition layout.
    pub fn layout(&self) -> PartitionMap {
        self.layout
    }

    /// Whether this node backs up `partition`.
    pub fn backs_up(&self, partition: PartitionId) -> bool {
        self.backup_meta.contains_key(&partition)
    }

    /// Partitions currently served, sorted.
    pub fn served_partitions(&self) -> Vec<PartitionId> {
        self.serve_set.iter().copied().collect()
    }

    /// Whether served partitions stream to backups.
    pub fn is_active(&self) -> bool {
        self.is_active
    }

    /// Reconfigures the serving role: which partitions to serve and
    /// whether to stream deltas (`ActivePS`) or not (`ParamServ`).
    ///
    /// Partitions newly served that are currently held in the backup
    /// store are *promoted* (moved across); partitions newly backing that
    /// are currently held in the serving store are *demoted*. State for
    /// partitions in neither store must arrive later via
    /// [`ServerState::install_image`].
    pub fn reconfigure(&mut self, serve: &[PartitionId], backup: &[PartitionId], is_active: bool) {
        let new_serve: BTreeSet<PartitionId> = serve.iter().copied().collect();
        let new_backup: BTreeSet<PartitionId> = backup.iter().copied().collect();

        // Promote: backup store → serving store.
        for p in &new_serve {
            if self.backup_meta.contains_key(p) && !new_backup.contains(p) {
                let image = self.backup.export_partition(*p);
                self.backup.drop_partition(*p);
                self.backup_meta.remove(p);
                self.serving.import_partition(image);
            }
        }
        // Demote: serving store → backup store.
        for p in &new_backup {
            if self.serve_set.contains(p) && !new_serve.contains(p) {
                let image = self.serving.export_partition(*p);
                self.serving.drop_partition(*p);
                self.backup.import_partition(image);
            }
            self.backup_meta.entry(*p).or_default();
        }
        // Drop backup partitions no longer assigned.
        let stale: Vec<PartitionId> = self
            .backup_meta
            .keys()
            .filter(|p| !new_backup.contains(p))
            .copied()
            .collect();
        for p in stale {
            self.backup.drop_partition(p);
            self.backup_meta.remove(&p);
        }
        self.serve_set = new_serve;
        self.is_active = is_active;
    }

    /// Installs a full partition image into whichever store holds the
    /// partition's role (serving preferred). Clears its dirty delta.
    /// `clock` is the clock the image is consistent with.
    ///
    /// A backup-side install is a *fresh baseline*: any previously
    /// recorded push history described state this image just replaced,
    /// so keeping it would let a later rollback subtract deltas the
    /// image never contained. The bookkeeping resets to `clock` — a
    /// re-replicated backup reports the baseline clock (never a stale
    /// zero) to recovery quorums, and rollback stops at the baseline
    /// (the same bounded-imprecision contract as the capped push
    /// history).
    pub fn install_image(&mut self, partition: PartitionId, image: Values, clock: u64) {
        if self.serve_set.contains(&partition) {
            // Replace wholesale: drop whatever is there, then import.
            self.serving.drop_partition(partition);
            self.serving.import_partition(image);
        } else {
            self.backup.drop_partition(partition);
            self.backup.import_partition(image);
            self.backup_meta.insert(
                partition,
                BackupPartition {
                    last_clock: clock,
                    pushes: VecDeque::new(),
                    stream_ended: false,
                },
            );
        }
    }

    /// Drops the pending dirty deltas of one served partition without
    /// pushing them. Used when a full serving image (which already
    /// contains those deltas) was just shipped to a fresh backup:
    /// pushing them afterwards would double-apply them there.
    pub fn discard_dirty(&mut self, partition: PartitionId) {
        let _ = self.serving.take_dirty_partition(partition);
    }

    /// Answers a read: values for the requested keys this node holds in
    /// its serving store (missing keys omitted), copied into one reply
    /// buffer.
    pub fn handle_read(&self, keys: &KeySet) -> Values {
        self.serving.read_rows(keys)
    }

    /// Applies an update batch to a served partition in one store pass.
    /// Returns `false` (without applying) when the partition is not
    /// served here.
    pub fn handle_updates(&mut self, partition: PartitionId, updates: &Values) -> bool {
        if !self.serve_set.contains(&partition) {
            return false;
        }
        debug_assert!(
            updates
                .iter()
                .all(|(k, _)| self.layout.partition_of(k) == partition),
            "batch crosses partition boundary"
        );
        self.serving.apply_batch(updates);
        true
    }

    /// Takes the coalesced dirty deltas per served partition for a push
    /// (an ActivePS calls this when the global clock advances). Returns
    /// one `(partition, deltas)` entry per served partition with pending
    /// changes.
    pub fn take_push(&mut self) -> Vec<(PartitionId, Values)> {
        let mut out = Vec::new();
        for p in self.serving.dirty_partitions() {
            // Drain every dirty partition; deltas for partitions no
            // longer served are discarded (their new owner streams them).
            let dirty = self.serving.take_dirty_partition(p);
            if self.serve_set.contains(&p) && !dirty.is_empty() {
                out.push((p, dirty));
            }
        }
        out
    }

    /// Exports a full serving-side image of `partition`.
    pub fn export_serving(&self, partition: PartitionId) -> Values {
        self.serving.export_partition(partition)
    }

    // ------------------------------------------------------------------
    // Backup side
    // ------------------------------------------------------------------

    /// Applies an active→backup push. If the partition has since been
    /// promoted to serving (drain/promotion races), the deltas apply to
    /// the serving store instead, so no update is ever lost.
    pub fn apply_push(
        &mut self,
        partition: PartitionId,
        clock: u64,
        deltas: Values,
        end_of_life: bool,
    ) {
        if self.serve_set.contains(&partition) {
            self.serving.apply_batch(&deltas);
            return;
        }
        self.backup.apply_batch(&deltas);
        let meta = self.backup_meta.entry(partition).or_default();
        meta.last_clock = meta.last_clock.max(clock);
        meta.pushes.push_back((clock, deltas));
        while meta.pushes.len() > PUSH_HISTORY {
            meta.pushes.pop_front();
        }
        if end_of_life {
            meta.stream_ended = true;
        }
    }

    /// The minimum last-push clock across all backed-up partitions — the
    /// most recent clock to which the whole backup set is consistent.
    /// `None` when this node backs up nothing.
    pub fn backup_consistent_clock(&self) -> Option<u64> {
        self.backup_meta.values().map(|m| m.last_clock).min()
    }

    /// Rolls every backed-up partition back to at most `clock` by
    /// subtracting pushes applied after it.
    pub fn backup_rollback_to(&mut self, clock: u64) {
        for (_, meta) in self.backup_meta.iter_mut() {
            while let Some((c, deltas)) = meta.pushes.back() {
                if *c <= clock {
                    break;
                }
                self.backup.apply_batch(&deltas.scaled(-1.0));
                meta.last_clock = clock;
                meta.pushes.pop_back();
            }
        }
        // The subtraction paths above dirty the backup store; recovery
        // images are exported right after, so clear the noise.
        let _ = self.backup.take_dirty();
    }

    /// Exports a full backup-side image of `partition` (recovery source).
    pub fn export_backup(&self, partition: PartitionId) -> Values {
        self.backup.export_partition(partition)
    }

    /// A backup-side value (the figures' role check reads it).
    pub fn read_backup(&self, key: ParamKey) -> Option<RowRef<'_>> {
        self.backup.read(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proteus_ps::{decode_model, encode_model};
    use std::collections::BTreeMap;

    fn layout() -> PartitionMap {
        PartitionMap::new(4).expect("nonzero")
    }

    fn dv(x: f32) -> DenseVec {
        DenseVec::from(vec![x])
    }

    fn image(pairs: &[(u64, f32)]) -> Values {
        pairs.iter().map(|(k, x)| (ParamKey(*k), dv(*x))).collect()
    }

    #[test]
    fn serving_reads_and_updates() {
        let mut s = ServerState::new(layout());
        s.reconfigure(&[PartitionId(0)], &[], false);
        s.install_image(PartitionId(0), image(&[(0, 1.0), (4, 2.0)]), 0);
        assert!(s.serve_set.contains(&PartitionId(0)));
        assert!(s.handle_updates(PartitionId(0), &image(&[(0, 0.5)])));
        let keys = KeySet::from_sorted(&[ParamKey(0), ParamKey(1), ParamKey(4)]);
        let vals = s.handle_read(&keys);
        assert_eq!(vals.len(), 2);
        assert_eq!(vals.iter().next().unwrap().1, &[1.5]);
        // Updates for unserved partitions are refused.
        assert!(!s.handle_updates(PartitionId(1), &image(&[(1, 9.0)])));
    }

    #[test]
    fn take_push_groups_by_partition_and_drains() {
        let mut s = ServerState::new(layout());
        s.reconfigure(&[PartitionId(0), PartitionId(1)], &[], true);
        s.install_image(PartitionId(0), image(&[(0, 0.0)]), 0);
        s.install_image(PartitionId(1), image(&[(1, 0.0)]), 0);
        s.handle_updates(PartitionId(0), &image(&[(0, 1.0)]));
        s.handle_updates(PartitionId(1), &image(&[(1, 2.0)]));
        let push = s.take_push();
        assert_eq!(push.len(), 2);
        assert_eq!(push[0].0, PartitionId(0));
        assert!(s.take_push().is_empty(), "second take is empty");
    }

    #[test]
    fn backup_absorbs_pushes_and_rolls_back() {
        let mut b = ServerState::new(layout());
        b.reconfigure(&[], &[PartitionId(0)], false);
        b.install_image(PartitionId(0), image(&[(0, 10.0)]), 0);
        b.apply_push(PartitionId(0), 1, image(&[(0, 1.0)]), false);
        b.apply_push(PartitionId(0), 2, image(&[(0, 2.0)]), false);
        assert_eq!(b.read_backup(ParamKey(0)).unwrap().as_slice(), &[13.0]);
        assert_eq!(b.backup_consistent_clock(), Some(2));
        b.backup_rollback_to(1);
        assert_eq!(b.read_backup(ParamKey(0)).unwrap().as_slice(), &[11.0]);
        assert_eq!(b.backup_consistent_clock(), Some(1));
        let img = b.export_backup(PartitionId(0));
        assert_eq!(img.iter().next().unwrap().1, &[11.0]);
    }

    #[test]
    fn promotion_moves_backup_state_to_serving() {
        let mut b = ServerState::new(layout());
        b.reconfigure(&[], &[PartitionId(2)], false);
        b.install_image(PartitionId(2), image(&[(2, 7.0)]), 0);
        // Promote: the backup becomes the serving ParamServ.
        b.reconfigure(&[PartitionId(2)], &[], false);
        assert!(b.serve_set.contains(&PartitionId(2)));
        assert_eq!(b.serving.read(ParamKey(2)).unwrap().as_slice(), &[7.0]);
        assert!(b.read_backup(ParamKey(2)).is_none());
        // A straggler push for the promoted partition still lands.
        b.apply_push(PartitionId(2), 3, image(&[(2, 1.0)]), true);
        assert_eq!(b.serving.read(ParamKey(2)).unwrap().as_slice(), &[8.0]);
    }

    #[test]
    fn demotion_moves_serving_state_to_backup() {
        let mut s = ServerState::new(layout());
        s.reconfigure(&[PartitionId(1)], &[], false);
        s.install_image(PartitionId(1), image(&[(1, 3.0)]), 0);
        // Stage 1→2: this reliable node hands off serving and becomes
        // the backup for the same partition.
        s.reconfigure(&[], &[PartitionId(1)], false);
        assert!(!s.serve_set.contains(&PartitionId(1)));
        assert!(s.backs_up(PartitionId(1)));
        assert_eq!(s.read_backup(ParamKey(1)).unwrap().as_slice(), &[3.0]);
        assert!(s.serving.read(ParamKey(1)).is_none());
    }

    #[test]
    fn install_replaces_existing_partition_state() {
        let mut s = ServerState::new(layout());
        s.reconfigure(&[PartitionId(0)], &[], false);
        s.install_image(PartitionId(0), image(&[(0, 1.0), (4, 1.0)]), 0);
        // Recovery install replaces wholesale (old key 4 disappears if
        // absent from the new image).
        s.install_image(PartitionId(0), image(&[(0, 9.0)]), 0);
        assert_eq!(s.serving.read(ParamKey(0)).unwrap().as_slice(), &[9.0]);
        assert!(s.serving.read(ParamKey(4)).is_none());
    }

    #[test]
    fn push_history_is_bounded() {
        let mut b = ServerState::new(layout());
        b.reconfigure(&[], &[PartitionId(0)], false);
        for c in 1..=40u64 {
            b.apply_push(PartitionId(0), c, image(&[(0, 1.0)]), false);
        }
        // Rolling back further than the history reaches stops at the
        // oldest retained push.
        b.backup_rollback_to(0);
        let v = b.read_backup(ParamKey(0)).unwrap().as_slice()[0];
        assert_eq!(v, 40.0 - PUSH_HISTORY as f32);
    }

    #[test]
    fn backup_install_resets_history_to_fresh_baseline() {
        let mut b = ServerState::new(layout());
        b.reconfigure(&[], &[PartitionId(0)], false);
        b.install_image(PartitionId(0), image(&[(0, 10.0)]), 0);
        b.apply_push(PartitionId(0), 1, image(&[(0, 1.0)]), false);
        b.apply_push(PartitionId(0), 2, image(&[(0, 2.0)]), false);
        // A re-replication install at clock 5 is a fresh baseline: the
        // old push history described state the image just replaced.
        b.install_image(PartitionId(0), image(&[(0, 50.0)]), 5);
        assert_eq!(b.backup_consistent_clock(), Some(5));
        // Rollback below the baseline cannot reach behind the install.
        b.backup_rollback_to(1);
        assert_eq!(b.read_backup(ParamKey(0)).unwrap().as_slice(), &[50.0]);
        assert_eq!(b.backup_consistent_clock(), Some(5));
    }

    #[test]
    fn discard_dirty_drops_unpushed_deltas() {
        let mut s = ServerState::new(layout());
        s.reconfigure(&[PartitionId(0)], &[], true);
        s.install_image(PartitionId(0), image(&[(0, 1.0)]), 0);
        s.handle_updates(PartitionId(0), &image(&[(0, 3.0)]));
        s.discard_dirty(PartitionId(0));
        // Serving state keeps the applied update; the push aggregate
        // does not resend it.
        assert_eq!(s.serving.read(ParamKey(0)).unwrap().as_slice(), &[4.0]);
        assert!(s.take_push().is_empty());
    }

    proptest! {
        /// Mid-migration snapshot fidelity: a serving partition that has
        /// applied (but not yet pushed) dirty deltas exports an image
        /// that survives the durable `PSNP` encoding bit-identically and
        /// re-installs into a fresh server as the exact same serving
        /// state — arbitrary key layouts, arbitrary f32 bit patterns.
        #[test]
        fn dirty_export_restores_bit_identically(
            base in proptest::collection::btree_map(any::<u64>(), any::<u32>(), 1..16),
            dirty in proptest::collection::btree_map(any::<u64>(), any::<u32>(), 0..16),
        ) {
            let one = || PartitionMap::new(1).expect("nonzero");
            let mut src = ServerState::new(one());
            src.reconfigure(&[PartitionId(0)], &[], true);
            let img: Values = base
                .iter()
                .map(|(k, b)| (ParamKey(*k), dv(f32::from_bits(*b))))
                .collect();
            src.install_image(PartitionId(0), img, 0);
            let deltas: Values = dirty
                .iter()
                .filter(|(k, _)| base.contains_key(k))
                .map(|(k, b)| (ParamKey(*k), dv(f32::from_bits(*b))))
                .collect();
            src.handle_updates(PartitionId(0), &deltas);

            let exported = src.export_serving(PartitionId(0));
            let model: BTreeMap<ParamKey, DenseVec> = exported.clone().into_iter().collect();
            let decoded = decode_model(&encode_model(&model)).expect("decode");

            let mut dst = ServerState::new(one());
            dst.reconfigure(&[PartitionId(0)], &[], true);
            dst.install_image(PartitionId(0), decoded.into_iter().collect(), 0);
            let restored = dst.export_serving(PartitionId(0));
            let bits = |v: &Values| -> Vec<(u64, Vec<u32>)> {
                v.iter()
                    .map(|(k, x)| (k.0, x.iter().map(|f| f.to_bits()).collect()))
                    .collect()
            };
            prop_assert_eq!(bits(&exported), bits(&restored));
        }
    }

    #[test]
    fn reconfigure_drops_unassigned_backups() {
        let mut b = ServerState::new(layout());
        b.reconfigure(&[], &[PartitionId(0), PartitionId(1)], false);
        b.install_image(PartitionId(0), image(&[(0, 1.0)]), 0);
        b.install_image(PartitionId(1), image(&[(1, 1.0)]), 0);
        b.reconfigure(&[], &[PartitionId(0)], false);
        assert!(b.backs_up(PartitionId(0)));
        assert!(!b.backs_up(PartitionId(1)));
        assert!(b.read_backup(ParamKey(1)).is_none());
    }
}
