//! One server shard's parameter state.
//!
//! A [`ShardStore`] holds the key-value pairs for the partitions assigned
//! to one server process (a `ParamServ`, `ActivePS`, or `BackupPS` in
//! AgileML terms). Besides reads and commutative updates it supports
//! partition-granular export/import — the primitive behind partition
//! migration, active→backup streaming, and recovery — and *delta
//! tracking*: the aggregate of updates applied since the last push to the
//! backup, which is what lets an ActivePS roll back to a state consistent
//! with its BackupPS after a partial failure (Sec. 3.3).
//!
//! # Internal layout: one slab per partition
//!
//! Under the modulo key layout (`partition = key % count`) each
//! partition's keys form the arithmetic progression `p, p+count,
//! p+2·count, …`, so `key / count` is a dense slot index within the
//! partition. The store exploits this: instead of one global hash map,
//! it keeps a `Slab` per partition — a dense `Vec` indexed by slot
//! (with a hash-map spill for pathologically large keys). Batched
//! updates hit a direct array index instead of two hash probes per key,
//! partition export/drop walk exactly one slab instead of filtering
//! every key in the store, and independent partitions never contend on
//! shared bucket state.

use std::collections::HashMap;

use crate::partition::{ParamKey, PartitionId, PartitionMap};
use crate::value::PsValue;

/// Slots below this index live in the dense vector; larger ones (keys
/// beyond ~4 billion × partition-count, which no bundled app produces)
/// spill to a hash map so arbitrary `u64` keys still work without
/// unbounded allocation.
pub(crate) const DENSE_SLOT_LIMIT: u64 = 1 << 22;

/// Dense-first storage for one partition: a slot-indexed vector with a
/// hash spill for slots past [`DENSE_SLOT_LIMIT`].
#[derive(Debug, Clone)]
struct Slab<V> {
    dense: Vec<Option<V>>,
    /// Entries with `slot >= DENSE_SLOT_LIMIT` only — keeping the two
    /// ranges disjoint means "dense in slot order, then spill sorted"
    /// enumerates all keys in increasing order.
    spill: HashMap<u64, V>,
    live: usize,
}

impl<V> Default for Slab<V> {
    fn default() -> Self {
        Slab {
            dense: Vec::new(),
            spill: HashMap::new(),
            live: 0,
        }
    }
}

impl<V> Slab<V> {
    fn get(&self, slot: u64) -> Option<&V> {
        if slot < DENSE_SLOT_LIMIT {
            self.dense.get(slot as usize).and_then(|o| o.as_ref())
        } else {
            self.spill.get(&slot)
        }
    }

    fn get_mut(&mut self, slot: u64) -> Option<&mut V> {
        if slot < DENSE_SLOT_LIMIT {
            self.dense.get_mut(slot as usize).and_then(|o| o.as_mut())
        } else {
            self.spill.get_mut(&slot)
        }
    }

    fn insert(&mut self, slot: u64, value: V) -> Option<V> {
        let old = if slot < DENSE_SLOT_LIMIT {
            let idx = slot as usize;
            if idx >= self.dense.len() {
                self.dense.resize_with(idx + 1, || None);
            }
            self.dense[idx].replace(value)
        } else {
            self.spill.insert(slot, value)
        };
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    fn remove(&mut self, slot: u64) -> Option<V> {
        let old = if slot < DENSE_SLOT_LIMIT {
            self.dense.get_mut(slot as usize).and_then(|o| o.take())
        } else {
            self.spill.remove(&slot)
        };
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    fn clear(&mut self) -> usize {
        let n = self.live;
        self.dense.clear();
        self.spill.clear();
        self.live = 0;
        n
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates `(slot, value)` in increasing slot order.
    fn iter_sorted(&self) -> impl Iterator<Item = (u64, &V)> {
        let mut spill_slots: Vec<u64> = self.spill.keys().copied().collect();
        spill_slots.sort_unstable();
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.as_ref().map(|v| (i as u64, v)))
            .chain(
                spill_slots
                    .into_iter()
                    .filter_map(move |s| self.spill.get(&s).map(|v| (s, v))),
            )
    }

    /// Drains every entry in increasing slot order.
    fn drain_sorted(&mut self) -> Vec<(u64, V)> {
        let mut out: Vec<(u64, V)> = Vec::with_capacity(self.live);
        for (i, o) in self.dense.iter_mut().enumerate() {
            if let Some(v) = o.take() {
                out.push((i as u64, v));
            }
        }
        let mut spilled: Vec<(u64, V)> = self.spill.drain().collect();
        spilled.sort_unstable_by_key(|(s, _)| *s);
        out.extend(spilled);
        self.dense.clear();
        self.live = 0;
        out
    }
}

/// Parameter state held by one server shard, stored slab-per-partition.
#[derive(Debug, Clone)]
pub struct ShardStore<V> {
    layout: PartitionMap,
    /// Live parameter values, one slab per partition.
    values: Vec<Slab<V>>,
    /// Aggregate of deltas applied since the last `take_dirty` — keyed
    /// the same way, merged commutatively.
    dirty: Vec<Slab<V>>,
}

impl<V: PsValue> ShardStore<V> {
    /// Creates an empty shard using the job's partition layout.
    pub fn new(layout: PartitionMap) -> Self {
        let n = layout.count() as usize;
        let mut values = Vec::with_capacity(n);
        let mut dirty = Vec::with_capacity(n);
        values.resize_with(n, Slab::default);
        dirty.resize_with(n, Slab::default);
        ShardStore {
            layout,
            values,
            dirty,
        }
    }

    /// The partition layout this shard uses.
    pub fn layout(&self) -> PartitionMap {
        self.layout
    }

    /// Splits `key` into its partition index and in-partition slot.
    #[inline]
    fn locate(&self, key: ParamKey) -> (usize, u64) {
        let count = u64::from(self.layout.count());
        ((key.0 % count) as usize, key.0 / count)
    }

    /// Reassembles the key stored at `slot` of partition `p`.
    #[inline]
    fn key_at(&self, p: usize, slot: u64) -> ParamKey {
        ParamKey(slot * u64::from(self.layout.count()) + p as u64)
    }

    /// Installs an initial value for `key`, replacing any existing one and
    /// clearing its dirty delta.
    pub fn install(&mut self, key: ParamKey, value: V) {
        let (p, slot) = self.locate(key);
        self.values[p].insert(slot, value);
        self.dirty[p].remove(slot);
    }

    /// Reads the current value of `key`.
    pub fn read(&self, key: ParamKey) -> Option<&V> {
        let (p, slot) = self.locate(key);
        self.values[p].get(slot)
    }

    /// Applies a commutative delta to `key` and tracks it in the dirty
    /// aggregate.
    ///
    /// Unknown keys are initialized to the delta (zero plus delta), which
    /// lets workers lazily materialize rows.
    pub fn apply_update(&mut self, key: ParamKey, delta: &V) {
        let (p, slot) = self.locate(key);
        match self.values[p].get_mut(slot) {
            Some(v) => v.merge(delta),
            None => {
                self.values[p].insert(slot, delta.clone());
            }
        }
        match self.dirty[p].get_mut(slot) {
            Some(d) => d.merge(delta),
            None => {
                self.dirty[p].insert(slot, delta.clone());
            }
        }
    }

    /// Applies a whole batch of `(key, delta)` pairs in one pass over
    /// the slabs — the batched data plane's entry point. Equivalent to
    /// calling [`ShardStore::apply_update`] per pair (bit-identical
    /// resulting state), without re-resolving partition slabs per key.
    pub fn apply_batch(&mut self, updates: &[(ParamKey, V)]) {
        let count = u64::from(self.layout.count());
        for (key, delta) in updates {
            let p = (key.0 % count) as usize;
            let slot = key.0 / count;
            match self.values[p].get_mut(slot) {
                Some(v) => v.merge(delta),
                None => {
                    self.values[p].insert(slot, delta.clone());
                }
            }
            match self.dirty[p].get_mut(slot) {
                Some(d) => d.merge(delta),
                None => {
                    self.dirty[p].insert(slot, delta.clone());
                }
            }
        }
    }

    /// Number of materialized keys.
    pub fn len(&self) -> usize {
        self.values.iter().map(Slab::len).sum()
    }

    /// Whether the shard holds no keys.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(Slab::is_empty)
    }

    /// Exports every `(key, value)` belonging to `partition`, sorted by
    /// key for deterministic wire images. Walks exactly one slab.
    pub fn export_partition(&self, partition: PartitionId) -> Vec<(ParamKey, V)> {
        let p = partition.0 as usize;
        match self.values.get(p) {
            Some(slab) => slab
                .iter_sorted()
                .map(|(slot, v)| (self.key_at(p, slot), v.clone()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Installs an exported partition image, replacing any existing values
    /// for those keys (used on migration targets and during recovery).
    pub fn import_partition<I: IntoIterator<Item = (ParamKey, V)>>(&mut self, image: I) {
        for (k, v) in image {
            self.install(k, v);
        }
    }

    /// Removes every key belonging to `partition` (after the partition has
    /// migrated elsewhere), returning how many keys were dropped. O(slab),
    /// touching no other partition's state.
    pub fn drop_partition(&mut self, partition: PartitionId) -> usize {
        let p = partition.0 as usize;
        let dropped = match self.values.get_mut(p) {
            Some(slab) => slab.clear(),
            None => 0,
        };
        if let Some(slab) = self.dirty.get_mut(p) {
            slab.clear();
        }
        dropped
    }

    /// Takes and clears the dirty aggregate: the coalesced updates applied
    /// since the previous call, sorted by key. This is what an ActivePS
    /// streams to its BackupPS in the background.
    pub fn take_dirty(&mut self) -> Vec<(ParamKey, V)> {
        let mut out: Vec<(ParamKey, V)> = Vec::new();
        for p in 0..self.dirty.len() {
            for (slot, v) in self.dirty[p].drain_sorted() {
                out.push((self.key_at(p, slot), v));
            }
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Takes and clears the dirty aggregate of one partition, sorted by
    /// key — the per-partition fast path for backup pushes (no global
    /// drain-and-regroup).
    pub fn take_dirty_partition(&mut self, partition: PartitionId) -> Vec<(ParamKey, V)> {
        let p = partition.0 as usize;
        match self.dirty.get_mut(p) {
            Some(slab) => slab
                .drain_sorted()
                .into_iter()
                .map(|(slot, v)| (self.key_at(p, slot), v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Partitions with pending dirty deltas, sorted.
    pub fn dirty_partitions(&self) -> Vec<PartitionId> {
        self.dirty
            .iter()
            .enumerate()
            .filter(|(_, slab)| !slab.is_empty())
            .map(|(p, _)| PartitionId(p as u32))
            .collect()
    }

    /// Whether any updates are pending since the last `take_dirty`.
    pub fn has_dirty(&self) -> bool {
        self.dirty.iter().any(|slab| !slab.is_empty())
    }

    /// Rolls the shard back to the state it had at the last `take_dirty`
    /// boundary by *subtracting* the pending dirty aggregate.
    ///
    /// This requires the value's merge to have an inverse under the dirty
    /// delta — true for component-wise addition, where subtracting means
    /// merging the negation. The negation is produced by `negate`.
    pub fn rollback_dirty(&mut self, negate: impl Fn(&V) -> V) {
        for p in 0..self.dirty.len() {
            for (slot, d) in self.dirty[p].drain_sorted() {
                if let Some(v) = self.values[p].get_mut(slot) {
                    v.merge(&negate(&d));
                }
            }
        }
    }

    /// Every key currently materialized, sorted (test/diagnostic helper).
    pub fn keys(&self) -> Vec<ParamKey> {
        let mut ks: Vec<ParamKey> = (0..self.values.len())
            .flat_map(|p| {
                self.values[p]
                    .iter_sorted()
                    .map(move |(slot, _)| self.key_at(p, slot))
            })
            .collect();
        ks.sort();
        ks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DenseVec;

    fn store(partitions: u32) -> ShardStore<DenseVec> {
        ShardStore::new(PartitionMap::new(partitions).expect("nonzero"))
    }

    fn dv(xs: &[f32]) -> DenseVec {
        DenseVec::from(xs.to_vec())
    }

    #[test]
    fn updates_merge_and_lazily_materialize() {
        let mut s = store(4);
        s.apply_update(ParamKey(1), &dv(&[1.0, 2.0]));
        s.apply_update(ParamKey(1), &dv(&[0.5, -2.0]));
        assert_eq!(s.read(ParamKey(1)).unwrap().as_slice(), &[1.5, 0.0]);
        assert_eq!(s.len(), 1);
        assert!(s.read(ParamKey(2)).is_none());
    }

    #[test]
    fn install_resets_dirty_state() {
        let mut s = store(4);
        s.apply_update(ParamKey(1), &dv(&[1.0]));
        assert!(s.has_dirty());
        s.install(ParamKey(1), dv(&[9.0]));
        assert!(!s.has_dirty());
        assert_eq!(s.read(ParamKey(1)).unwrap().as_slice(), &[9.0]);
    }

    #[test]
    fn export_import_round_trips_a_partition() {
        let mut src = store(4);
        // Keys 0,4,8 fall in partition 0; key 1 in partition 1.
        for k in [0u64, 4, 8, 1] {
            src.install(ParamKey(k), dv(&[k as f32]));
        }
        let image = src.export_partition(PartitionId(0));
        assert_eq!(image.len(), 3);

        let mut dst = store(4);
        dst.import_partition(image);
        assert_eq!(dst.read(ParamKey(4)).unwrap().as_slice(), &[4.0]);
        assert!(dst.read(ParamKey(1)).is_none());
    }

    #[test]
    fn drop_partition_removes_only_that_partition() {
        let mut s = store(4);
        for k in 0..8u64 {
            s.install(ParamKey(k), dv(&[k as f32]));
        }
        let dropped = s.drop_partition(PartitionId(2));
        assert_eq!(dropped, 2); // Keys 2 and 6.
        assert!(s.read(ParamKey(2)).is_none());
        assert!(s.read(ParamKey(6)).is_none());
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn take_dirty_coalesces_updates() {
        let mut s = store(2);
        s.apply_update(ParamKey(3), &dv(&[1.0]));
        s.apply_update(ParamKey(3), &dv(&[2.0]));
        s.apply_update(ParamKey(4), &dv(&[5.0]));
        let dirty = s.take_dirty();
        assert_eq!(dirty.len(), 2);
        let d3 = dirty.iter().find(|(k, _)| *k == ParamKey(3)).unwrap();
        assert_eq!(d3.1.as_slice(), &[3.0]);
        assert!(!s.has_dirty());
        assert!(s.take_dirty().is_empty());
    }

    #[test]
    fn take_dirty_partition_drains_only_that_partition() {
        let mut s = store(2);
        s.apply_update(ParamKey(0), &dv(&[1.0])); // partition 0
        s.apply_update(ParamKey(2), &dv(&[2.0])); // partition 0
        s.apply_update(ParamKey(1), &dv(&[3.0])); // partition 1
        assert_eq!(s.dirty_partitions(), vec![PartitionId(0), PartitionId(1)]);
        let d0 = s.take_dirty_partition(PartitionId(0));
        assert_eq!(d0.len(), 2);
        assert_eq!(d0[0].0, ParamKey(0));
        assert_eq!(d0[1].0, ParamKey(2));
        assert!(s.has_dirty(), "partition 1 still dirty");
        assert_eq!(s.dirty_partitions(), vec![PartitionId(1)]);
        assert_eq!(s.take_dirty_partition(PartitionId(1)).len(), 1);
        assert!(!s.has_dirty());
    }

    #[test]
    fn apply_batch_matches_per_key_updates() {
        let batch: Vec<(ParamKey, DenseVec)> = (0..32u64)
            .map(|k| (ParamKey(k % 11), dv(&[k as f32, -(k as f32)])))
            .collect();
        let mut per_key = store(4);
        let mut batched = store(4);
        for (k, d) in &batch {
            per_key.apply_update(*k, d);
        }
        batched.apply_batch(&batch);
        assert_eq!(per_key.keys(), batched.keys());
        for k in per_key.keys() {
            assert_eq!(
                per_key.read(k).unwrap().as_slice(),
                batched.read(k).unwrap().as_slice(),
                "batched apply must be bit-identical at key {k:?}"
            );
        }
        assert_eq!(per_key.take_dirty(), batched.take_dirty());
    }

    #[test]
    fn rollback_dirty_restores_last_pushed_state() {
        let mut s = store(2);
        s.install(ParamKey(1), dv(&[10.0]));
        // Simulate a push boundary.
        let _ = s.take_dirty();
        // Updates since the push.
        s.apply_update(ParamKey(1), &dv(&[2.5]));
        s.apply_update(ParamKey(1), &dv(&[0.5]));
        assert_eq!(s.read(ParamKey(1)).unwrap().as_slice(), &[13.0]);
        // A failure elsewhere forces this shard back to the backup state.
        s.rollback_dirty(|d| {
            let mut n = d.clone();
            n.scale(-1.0);
            n
        });
        assert_eq!(s.read(ParamKey(1)).unwrap().as_slice(), &[10.0]);
        assert!(!s.has_dirty());
    }

    #[test]
    fn exported_images_are_sorted_by_key() {
        let mut s = store(1);
        for k in [9u64, 3, 7, 1] {
            s.install(ParamKey(k), dv(&[0.0]));
        }
        let image = s.export_partition(PartitionId(0));
        let keys: Vec<u64> = image.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![1, 3, 7, 9]);
        assert_eq!(
            s.keys(),
            vec![ParamKey(1), ParamKey(3), ParamKey(7), ParamKey(9)]
        );
    }

    #[test]
    fn huge_keys_spill_without_unbounded_allocation() {
        let mut s = store(2);
        let huge = ParamKey(u64::MAX - 1); // Even → partition 0, giant slot.
        s.install(huge, dv(&[7.0]));
        s.apply_update(huge, &dv(&[1.0]));
        s.install(ParamKey(0), dv(&[1.0]));
        assert_eq!(s.read(huge).unwrap().as_slice(), &[8.0]);
        assert_eq!(s.len(), 2);
        // Exports keep global key order across the dense/spill boundary.
        let image = s.export_partition(PartitionId(0));
        assert_eq!(image[0].0, ParamKey(0));
        assert_eq!(image[1].0, huge);
        assert_eq!(s.drop_partition(PartitionId(0)), 2);
        assert!(s.is_empty());
    }
}
