//! One server shard's parameter state.
//!
//! A [`ShardStore`] holds the key-value pairs for the partitions assigned
//! to one server process (a `ParamServ`, `ActivePS`, or `BackupPS` in
//! AgileML terms). Besides reads and commutative updates it supports
//! partition-granular export/import — the primitive behind partition
//! migration, active→backup streaming, and recovery — and *delta
//! tracking*: the aggregate of updates applied since the last push to the
//! backup, which is what an ActivePS streams to its BackupPS (Sec. 3.3).
//!
//! # Internal layout: one flat slab per partition
//!
//! Under the modulo key layout (`partition = key % count`) each
//! partition's keys form the arithmetic progression `p, p+count,
//! p+2·count, …`, so `key / count` is a dense slot index within the
//! partition. The store keeps a `Slab` per partition: a dense
//! slot-indexed row table over two flat `f32` vectors, the live values
//! and the dirty aggregate, in which each row owns the same
//! `start..start + dim` range — the layout `WorkerCache` uses. The
//! keys are the app's, `0..key_count`, so a slab's table has a word per
//! slot up to its largest key's: memory proportional to the largest
//! key held. Applying a delta is an in-place add into a slice (or a
//! copy, the first time), reads and exports copy rows into one payload
//! buffer in key order, and partition export/drop walk exactly one
//! slab.

use std::marker::PhantomData;
use std::ops::Range;

use crate::kernels;
use crate::keyset::KeySet;
use crate::partition::{ParamKey, PartitionId, PartitionMap};
use crate::value::DenseVec;
use crate::values::{Rows, Values};

const NO_ROW: usize = usize::MAX;

/// One row's range in its slab's two vectors.
#[derive(Debug, Clone)]
struct Row {
    start: usize,
    dim: usize,
    /// Whether `deltas` holds an aggregate not yet taken.
    dirty: bool,
}

/// One partition: a slot table over the values and the dirty aggregate.
#[derive(Debug, Clone, Default)]
struct Slab {
    /// `slot → row`, `NO_ROW` for a slot with none.
    index: Vec<usize>,
    rows: Vec<Row>,
    values: Vec<f32>,
    deltas: Vec<f32>,
    /// Rows with `dirty` set, and their components in all: the exact
    /// size of the next drain.
    dirty_rows: usize,
    dirty_floats: usize,
}

impl Slab {
    #[inline]
    fn row(&self, slot: u64) -> Option<usize> {
        let row = *self.index.get(slot as usize)?;
        (row != NO_ROW).then_some(row)
    }

    #[inline]
    fn range(&self, row: usize) -> Range<usize> {
        let r = &self.rows[row];
        r.start..r.start + r.dim
    }

    /// Stores `value` as a fresh range for `slot` — a new key, or a
    /// reinstall at another width, whose old range then sits unused
    /// until the partition drops. Returns the row, clean.
    fn place(&mut self, slot: u64, value: &[f32]) -> usize {
        let start = self.values.len();
        self.values.extend_from_slice(value);
        self.deltas.resize(self.values.len(), 0.0);
        let fresh = Row {
            start,
            dim: value.len(),
            dirty: false,
        };
        if let Some(row) = self.row(slot) {
            self.clean(row);
            self.rows[row] = fresh;
            return row;
        }
        let row = self.rows.len();
        self.rows.push(fresh);
        let i = slot as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, NO_ROW);
        }
        self.index[i] = row;
        row
    }

    /// Forgets `row`'s dirty aggregate.
    fn clean(&mut self, row: usize) {
        let r = &mut self.rows[row];
        if std::mem::take(&mut r.dirty) {
            self.dirty_rows -= 1;
            self.dirty_floats -= r.dim;
        }
    }

    fn install(&mut self, slot: u64, value: &[f32]) {
        match self.row(slot).filter(|&r| self.rows[r].dim == value.len()) {
            Some(row) => {
                self.clean(row);
                let range = self.range(row);
                self.values[range].copy_from_slice(value);
            }
            None => {
                self.place(slot, value);
            }
        }
    }

    /// Adds `delta` to the row and to its dirty aggregate. A row's first
    /// delta — and the aggregate's first since a drain — is *copied*,
    /// not added to zeros, so a `-0.0` component survives.
    fn apply(&mut self, slot: u64, delta: &[f32]) {
        let row = match self.row(slot) {
            Some(row) => {
                let range = self.range(row);
                kernels::add_assign(&mut self.values[range], delta);
                row
            }
            None => self.place(slot, delta),
        };
        let range = self.range(row);
        let r = &mut self.rows[row];
        if r.dirty {
            kernels::add_assign(&mut self.deltas[range], delta);
        } else {
            self.deltas[range].copy_from_slice(delta);
            r.dirty = true;
            self.dirty_rows += 1;
            self.dirty_floats += r.dim;
        }
    }

    /// `(slot, row)` of every row, in increasing slot order.
    fn sorted(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        (self.index.iter().enumerate())
            .filter(|&(_, &r)| r != NO_ROW)
            .map(|(s, &r)| (s as u64, r))
    }
}

/// A `(key, row)` pair as a batch yields it: borrowed from a [`Values`]
/// payload, or a reference to an owned pair.
pub trait KeyedRow {
    /// The pair's key and components.
    fn key_row(&self) -> (ParamKey, &[f32]);
}

impl KeyedRow for (ParamKey, &[f32]) {
    fn key_row(&self) -> (ParamKey, &[f32]) {
        *self
    }
}

impl<R: AsRef<[f32]>> KeyedRow for &(ParamKey, R) {
    fn key_row(&self) -> (ParamKey, &[f32]) {
        (self.0, self.1.as_ref())
    }
}

/// A row borrowed from a store, as [`ShardStore::read`] returns it.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a>(&'a [f32]);

impl<'a> RowRef<'a> {
    /// The row's components.
    pub fn as_slice(&self) -> &'a [f32] {
        self.0
    }
}

/// Parameter state held by one server shard, stored slab-per-partition.
/// `V` is the value type the rows stand for; they are stored flat.
#[derive(Debug, Clone)]
pub struct ShardStore<V = DenseVec> {
    layout: PartitionMap,
    slabs: Vec<Slab>,
    _value: PhantomData<fn() -> V>,
}

impl ShardStore<DenseVec> {
    /// Creates an empty shard using the job's partition layout.
    pub fn new(layout: PartitionMap) -> Self {
        let mut slabs = Vec::new();
        slabs.resize_with(layout.count() as usize, Slab::default);
        ShardStore {
            layout,
            slabs,
            _value: PhantomData,
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
    pub fn install(&mut self, key: ParamKey, value: impl AsRef<[f32]>) {
        let (p, slot) = self.locate(key);
        self.slabs[p].install(slot, value.as_ref());
    }

    /// Reads the current value of `key`.
    #[inline]
    pub fn read(&self, key: ParamKey) -> Option<RowRef<'_>> {
        let (p, slot) = self.locate(key);
        let slab = &self.slabs[p];
        slab.row(slot)
            .map(|row| RowRef(&slab.values[slab.range(row)]))
    }

    /// Answers a batched read in one pass: the rows of `keys` this shard
    /// holds, copied into one payload in key order (missing keys
    /// omitted). The buffer is sized from the first row found, exactly
    /// when every key is present at one width.
    ///
    /// Each strided run of `keys` is walked in its own terms: a key
    /// `stride` further on sits `stride % count` partitions and
    /// `stride / count` slots further (one more slot when the partition
    /// wraps), so after the run's first key no key costs a division.
    pub fn read_rows(&self, keys: &KeySet) -> Values {
        let count = u64::from(self.layout.count());
        let mut out = Rows::with_capacity(keys.len(), 0);
        for run in keys.runs() {
            let (step_p, step_slot) = (run.stride % count, run.stride / count);
            let (mut p, mut slot) = (run.start % count, run.start / count);
            let mut key = run.start;
            for _ in 0..run.count {
                let slab = &self.slabs[p as usize];
                if let Some(row) = slab.row(slot) {
                    let row = &slab.values[slab.range(row)];
                    out.reserve_floats(keys.len() * row.len());
                    out.push(ParamKey(key), row);
                }
                // Past the run's last key these may wrap; they are unused.
                key = key.wrapping_add(run.stride);
                slot = slot.wrapping_add(step_slot);
                p += step_p;
                if p >= count {
                    p -= count;
                    slot = slot.wrapping_add(1);
                }
            }
        }
        Values::from_rows(out)
    }

    /// Applies a commutative delta to `key` and tracks it in the dirty
    /// aggregate.
    ///
    /// Unknown keys are initialized to the delta (zero plus delta), which
    /// lets workers lazily materialize rows.
    pub fn apply_update(&mut self, key: ParamKey, delta: &(impl AsRef<[f32]> + ?Sized)) {
        let (p, slot) = self.locate(key);
        self.slabs[p].apply(slot, delta.as_ref());
    }

    /// Applies a whole batch of `(key, delta)` pairs in one pass over
    /// the slabs — the batched data plane's entry point. Equivalent to
    /// calling [`ShardStore::apply_update`] per pair (bit-identical
    /// resulting state).
    pub fn apply_batch<R: KeyedRow>(&mut self, updates: impl IntoIterator<Item = R>) {
        let count = u64::from(self.layout.count());
        for pair in updates {
            let (key, delta) = pair.key_row();
            self.slabs[(key.0 % count) as usize].apply(key.0 / count, delta);
        }
    }

    /// Exports every `(key, value)` belonging to `partition` as one
    /// payload, sorted by key for deterministic wire images. Walks
    /// exactly one slab.
    pub fn export_partition(&self, partition: PartitionId) -> Values {
        let p = partition.0 as usize;
        let Some(slab) = self.slabs.get(p) else {
            return Values::new();
        };
        let mut out = Rows::with_capacity(slab.rows.len(), slab.values.len());
        for (slot, row) in slab.sorted() {
            out.push(self.key_at(p, slot), &slab.values[slab.range(row)]);
        }
        Values::from_rows(out)
    }

    /// Installs an exported partition image, replacing any existing values
    /// for those keys (used on migration targets and during recovery).
    pub fn import_partition(&mut self, image: Values) {
        if let Some((key, _)) = image.iter().next() {
            // An image is one partition's: size its slab once.
            let (p, _) = self.locate(key);
            let slab = &mut self.slabs[p];
            slab.rows.reserve_exact(image.len());
            slab.values.reserve_exact(image.floats());
            slab.deltas.reserve_exact(image.floats());
        }
        for (key, row) in &image {
            self.install(key, row);
        }
    }

    /// Removes every key belonging to `partition` (after the partition has
    /// migrated elsewhere), returning how many keys were dropped. O(1),
    /// touching no other partition's state.
    pub fn drop_partition(&mut self, partition: PartitionId) -> usize {
        self.slabs
            .get_mut(partition.0 as usize)
            .map_or(0, |slab| std::mem::take(slab).rows.len())
    }

    /// Takes and clears the dirty aggregate: the coalesced updates applied
    /// since the previous call, sorted by key.
    pub fn take_dirty(&mut self) -> Vec<(ParamKey, DenseVec)> {
        let layout = self.layout;
        let mut out: Vec<(ParamKey, DenseVec)> = layout
            .partitions()
            .flat_map(|p| self.take_dirty_partition(p))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Takes and clears the dirty aggregate of one partition as one
    /// payload, sorted by key — what an ActivePS streams to its BackupPS.
    pub fn take_dirty_partition(&mut self, partition: PartitionId) -> Values {
        let p = partition.0 as usize;
        let Some(slab) = self.slabs.get(p).filter(|s| s.dirty_rows > 0) else {
            return Values::new();
        };
        let mut out = Rows::with_capacity(slab.dirty_rows, slab.dirty_floats);
        for (slot, row) in slab.sorted() {
            if slab.rows[row].dirty {
                out.push(self.key_at(p, slot), &slab.deltas[slab.range(row)]);
            }
        }
        let slab = &mut self.slabs[p];
        for row in &mut slab.rows {
            row.dirty = false;
        }
        (slab.dirty_rows, slab.dirty_floats) = (0, 0);
        Values::from_rows(out)
    }

    /// Partitions with pending dirty deltas, sorted.
    pub fn dirty_partitions(&self) -> Vec<PartitionId> {
        (self.layout.partitions())
            .filter(|p| self.slabs[p.0 as usize].dirty_rows > 0)
            .collect()
    }

    /// Whether any updates are pending since the last `take_dirty`.
    pub fn has_dirty(&self) -> bool {
        self.slabs.iter().any(|s| s.dirty_rows > 0)
    }

    /// Every key currently materialized, sorted (test/diagnostic helper).
    pub fn keys(&self) -> Vec<ParamKey> {
        let mut ks: Vec<ParamKey> = (self.slabs.iter().enumerate())
            .flat_map(|(p, slab)| slab.sorted().map(move |(slot, _)| self.key_at(p, slot)))
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
        assert_eq!(s.keys().len(), 1);
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
        assert_eq!(image.floats(), 3, "one buffer, sized exactly");

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
        assert_eq!(s.keys().len(), 6);
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
        let keys: Vec<ParamKey> = d0.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![ParamKey(0), ParamKey(2)]);
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
}
