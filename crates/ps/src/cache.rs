//! The worker-side parameter cache with write-back update buffering.
//!
//! To reduce cross-machine traffic, parameter-server implementations ship
//! a worker-side library that caches parameter values and buffers updates
//! (Sec. 2.1). Worker threads read rows and add deltas; deltas apply to
//! the local cached copy immediately (so the worker sees its own writes)
//! and accumulate in a write-back buffer that is flushed to the server
//! shards once per clock.
//!
//! # Layout: two flat slabs behind one index
//!
//! Every key the cache has seen owns a *slot*: the same `start..start +
//! dim` range of two flat `f32` vectors, `cached` (server value as of the
//! last refresh plus this worker's own unflushed deltas) and `buffer`
//! (those unflushed deltas alone). Keys index a dense slot table (a hash
//! spill takes keys past `ShardStore`'s dense limit), so the per-datum
//! path is an array index and an in-place kernel — no hashing, no
//! allocation.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Range;

use crate::kernels;
use crate::partition::{ParamKey, PartitionId, PartitionMap};
use crate::shard::DENSE_SLOT_LIMIT;
use crate::value::DenseVec;
use crate::values::{Rows, Values};

const NO_SLOT: usize = usize::MAX;

/// One key's place in the slabs.
#[derive(Debug, Clone)]
struct Slot {
    /// Destination partition, then key: the order `flush` emits in.
    order: (PartitionId, ParamKey),
    start: usize,
    dim: usize,
    /// Whether `cached` holds a value. A reserved row reads as zeros
    /// until its first refresh or delta, which is *copied* in.
    present: bool,
    /// Whether `buffer` holds an unflushed delta (then `present` too).
    dirty: bool,
}

/// A worker's local view of the parameter state. `V` is the value type
/// [`WorkerCache::flush`] ships; the rows themselves are stored flat.
#[derive(Debug, Clone)]
pub struct WorkerCache<V = DenseVec> {
    layout: PartitionMap,
    /// `key → slot` for keys below `DENSE_SLOT_LIMIT`.
    index: Vec<usize>,
    /// `key → slot` for the rest.
    spill: HashMap<u64, usize>,
    slots: Vec<Slot>,
    cached: Vec<f32>,
    buffer: Vec<f32>,
    /// `(order, slot)` of the slots with `dirty` set, in first-touch
    /// order.
    dirty: Vec<((PartitionId, ParamKey), usize)>,
    _wire: PhantomData<fn() -> V>,
}

impl WorkerCache<DenseVec> {
    /// Creates an empty cache over the job's partition layout.
    pub fn new(layout: PartitionMap) -> Self {
        WorkerCache {
            layout,
            index: Vec::new(),
            spill: HashMap::new(),
            slots: Vec::new(),
            cached: Vec::new(),
            buffer: Vec::new(),
            dirty: Vec::new(),
            _wire: PhantomData,
        }
    }

    #[inline]
    fn slot(&self, key: ParamKey) -> Option<usize> {
        let slot = if key.0 < DENSE_SLOT_LIMIT {
            *self.index.get(key.0 as usize)?
        } else {
            *self.spill.get(&key.0)?
        };
        (slot != NO_SLOT).then_some(slot)
    }

    #[inline]
    fn slot_or_reserve(&mut self, key: ParamKey, dim: usize) -> usize {
        match self.slot(key) {
            Some(slot) => slot,
            None => self.new_slot(key, dim),
        }
    }

    /// A zeroed slot of `dim` components for `key`, which has none: once
    /// per key, so kept out of the per-datum path.
    #[cold]
    fn new_slot(&mut self, key: ParamKey, dim: usize) -> usize {
        let slot = self.slots.len();
        if key.0 < DENSE_SLOT_LIMIT {
            let k = key.0 as usize;
            if k >= self.index.len() {
                self.index.resize(k + 1, NO_SLOT);
            }
            self.index[k] = slot;
        } else {
            self.spill.insert(key.0, slot);
        }
        let start = self.cached.len();
        self.cached.resize(start + dim, 0.0);
        self.buffer.resize(start + dim, 0.0);
        self.slots.push(Slot {
            order: (self.layout.partition_of(key), key),
            start,
            dim,
            present: false,
            dirty: false,
        });
        slot
    }

    /// Marks `slot` as holding a value and a pending delta; returns
    /// whether it held each before.
    #[inline]
    fn touch(&mut self, slot: usize) -> (bool, bool) {
        let s = &mut self.slots[slot];
        let was = (s.present, s.dirty);
        s.present = true;
        if !s.dirty {
            s.dirty = true;
            self.dirty.push((s.order, slot));
        }
        was
    }

    /// Where `slot`'s rows sit in the slabs.
    #[inline]
    fn range(&self, slot: usize) -> Range<usize> {
        let s = &self.slots[slot];
        s.start..s.start + s.dim
    }

    /// The cached and buffered rows of `slot`.
    #[inline]
    fn rows_mut(&mut self, slot: usize) -> (&mut [f32], &mut [f32]) {
        let range = self.range(slot);
        (&mut self.cached[range.clone()], &mut self.buffer[range])
    }

    /// Gives `key` a zero row of `dim` components without marking it
    /// cached, so [`WorkerCache::row`] has a row of the right shape to
    /// return before the first refresh. A key already seen is left alone.
    pub fn reserve(&mut self, key: ParamKey, dim: usize) {
        self.slot_or_reserve(key, dim);
    }

    /// The local view of `key`: its cached row, zeros for a key only
    /// reserved so far, and the empty slice for a key never seen.
    #[inline]
    pub fn row(&self, key: ParamKey) -> &[f32] {
        match self.slot(key) {
            Some(slot) => &self.cached[self.range(slot)],
            None => &[],
        }
    }

    /// Applies an update: visible locally at once, buffered for write-back.
    ///
    /// Unknown keys materialize as the delta itself, mirroring
    /// [`ShardStore::apply_update`](crate::ShardStore::apply_update); so
    /// does the first delta buffered since a flush — copied, not added
    /// to zero, so a `-0.0` component reaches the server as `-0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `delta`'s dimension differs from the key's row.
    #[inline]
    pub fn update(&mut self, key: ParamKey, delta: &(impl AsRef<[f32]> + ?Sized)) {
        let delta = delta.as_ref();
        let slot = self.slot_or_reserve(key, delta.len());
        let (was_present, was_dirty) = self.touch(slot);
        let (row, acc) = self.rows_mut(slot);
        if was_present {
            kernels::add_assign(row, delta);
        } else {
            row.copy_from_slice(delta);
        }
        if was_dirty {
            kernels::add_assign(acc, delta);
        } else {
            acc.copy_from_slice(delta);
        }
    }

    /// [`WorkerCache::update`] with the delta `s·x + t·row(key)`, fused:
    /// the SGD step every bundled gradient app emits, with no temporary
    /// row. Bit-identical to computing that delta with
    /// [`kernels::lincomb`] and passing it to `update`.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s dimension differs from the key's row.
    #[inline]
    pub fn add_lincomb(&mut self, key: ParamKey, s: f32, x: &[f32], t: f32) {
        let slot = self.slot_or_reserve(key, x.len());
        let (was_present, was_dirty) = self.touch(slot);
        let (row, acc) = self.rows_mut(slot);
        if was_dirty {
            kernels::lincomb_step(row, acc, s, x, t);
        } else {
            first_step(row, acc, s, x, t, was_present);
        }
    }

    /// [`WorkerCache::add_lincomb`], then returns `dot(row(key), next)`
    /// of the row just updated: MLR's step on `w_k` and the next
    /// example's logit for class `k`, in one pass over the row once the
    /// key is dirty. Bit-identical to the two calls.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `next` differs in dimension from the key's row.
    #[inline]
    pub fn add_lincomb_dot(
        &mut self,
        key: ParamKey,
        s: f32,
        x: &[f32],
        t: f32,
        next: &[f32],
    ) -> f32 {
        let slot = self.slot_or_reserve(key, x.len());
        let (was_present, was_dirty) = self.touch(slot);
        let (row, acc) = self.rows_mut(slot);
        if was_dirty {
            kernels::lincomb_step_dot(row, acc, s, x, t, next)
        } else {
            first_step(row, acc, s, x, t, was_present);
            kernels::dot(row, next)
        }
    }

    /// Two SGD steps that read each other's row, in one pass: with `A`
    /// and `B` the rows of `a` and `b` as read and `(s, t) = coeffs(A,
    /// B)`, adds `s·B + t·A` to `a` and `s·A + t·B` to `b` (matrix
    /// factorization's step on `L_i` and `R_j`). Bit-identical to
    /// copying both rows and calling [`WorkerCache::add_lincomb`] on `a`
    /// with `B`, then on `b` with `A` — and `a` is touched first, as
    /// there — but each key is looked up once and nothing is copied.
    ///
    /// Each key's first-delta rule (a delta is copied into a row never
    /// refreshed and into a buffer flushed since, so a `-0.0` survives)
    /// is a select inside the one loop. Branching on the flags outside
    /// it would take one loop per combination of them, each to be kept
    /// bit-equal to the others by hand. A key not seen before gets a
    /// row of `dim` zeros first, as under [`WorkerCache::reserve`].
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or if either row is not `dim` wide.
    #[inline]
    pub fn add_lincomb_pair(
        &mut self,
        a: ParamKey,
        b: ParamKey,
        dim: usize,
        coeffs: impl FnOnce(&[f32], &[f32]) -> (f32, f32),
    ) {
        assert_ne!(a, b, "add_lincomb_pair needs two distinct keys");
        let (slot_a, slot_b) = (self.slot_or_reserve(a, dim), self.slot_or_reserve(b, dim));
        let (range_a, range_b) = (self.range(slot_a), self.range(slot_b));
        assert!(
            range_a.len() == dim && range_b.len() == dim,
            "width mismatch in add_lincomb_pair"
        );
        let st = coeffs(&self.cached[range_a.clone()], &self.cached[range_b.clone()]);
        let was_a = self.touch(slot_a);
        let was_b = self.touch(slot_b);
        let (row_a, row_b) = disjoint_mut(&mut self.cached, range_a.clone(), range_b.clone());
        let (acc_a, acc_b) = disjoint_mut(&mut self.buffer, range_a, range_b);
        lincomb_pair_step(row_a, row_b, acc_a, acc_b, st, was_a, was_b);
    }

    /// Installs a fresh server value, *preserving* any still-buffered local
    /// updates on top (so the worker continues to see its own writes).
    ///
    /// # Panics
    ///
    /// Panics if `server_row`'s dimension differs from the key's row.
    pub fn refresh(&mut self, key: ParamKey, server_row: &[f32]) {
        let slot = self.slot_or_reserve(key, server_row.len());
        self.slots[slot].present = true;
        let dirty = self.slots[slot].dirty;
        let (row, acc) = self.rows_mut(slot);
        row.copy_from_slice(server_row);
        if dirty {
            kernels::add_assign(row, acc);
        }
    }

    /// Drains the write-back buffer: one payload per destination
    /// partition, sorted by key, each sized exactly and written in one
    /// copy per row.
    pub fn flush(&mut self) -> Vec<(PartitionId, Values)> {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable_by_key(|&(order, _)| order);
        let mut out = Vec::new();
        for batch in dirty.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            let floats = batch.iter().map(|&(_, slot)| self.slots[slot].dim).sum();
            let mut rows = Rows::with_capacity(batch.len(), floats);
            for &((_, key), slot) in batch {
                let s = &mut self.slots[slot];
                s.dirty = false;
                rows.push(key, &self.buffer[s.start..s.start + s.dim]);
            }
            out.push((batch[0].0 .0, Values::from_rows(rows)));
        }
        dirty.clear();
        self.dirty = dirty; // Emptied; handed back for its allocation.
        out
    }

    /// Whether unflushed updates exist.
    pub fn has_pending(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Drops all cached values and pending updates (used when a worker's
    /// assignment is rolled back to a recovered snapshot).
    pub fn clear(&mut self) {
        self.index.clear();
        self.spill.clear();
        self.slots.clear();
        self.cached.clear();
        self.buffer.clear();
        self.dirty.clear();
    }
}

/// The step `s·x + t·row` on a key with no delta buffered since the
/// last flush: the delta is written into `acc` (and into `row`, if it
/// holds no value yet) rather than added, so a `-0.0` survives. Once
/// per key per clock.
#[inline]
fn first_step(row: &mut [f32], acc: &mut [f32], s: f32, x: &[f32], t: f32, present: bool) {
    kernels::lincomb(acc, s, x, t, row);
    if present {
        kernels::add_assign(row, acc);
    } else {
        row.copy_from_slice(acc);
    }
}

/// The loop of [`WorkerCache::add_lincomb_pair`], given the two keys'
/// cached and buffered rows and what `touch` returned for each. Kept
/// out of line on purpose: as a call's four `&mut` arguments the rows
/// are known not to overlap, so LLVM vectorizes the loop without the
/// run-time overlap checks it emits once the body is inlined — about
/// 8 % of `train_mf`'s time at rank 16 on a 2-core x86-64 host.
#[inline(never)]
fn lincomb_pair_step(
    row_a: &mut [f32],
    row_b: &mut [f32],
    acc_a: &mut [f32],
    acc_b: &mut [f32],
    (s, t): (f32, f32),
    (present_a, dirty_a): (bool, bool),
    (present_b, dirty_b): (bool, bool),
) {
    let rows = row_a.iter_mut().zip(row_b).zip(acc_a).zip(acc_b);
    for (((ra, rb), aa), ab) in rows {
        let (x, y) = (*ra, *rb);
        let (dx, dy) = (s * y + t * x, s * x + t * y);
        *ra = if present_a { x + dx } else { dx };
        *rb = if present_b { y + dy } else { dy };
        *aa = if dirty_a { *aa + dx } else { dx };
        *ab = if dirty_b { *ab + dy } else { dy };
    }
}

/// Mutable views of two non-overlapping ranges of `v`. Which range
/// comes first is a coin flip per call (slots are in first-touch
/// order), so the order is picked with selects, not a branch.
#[inline]
fn disjoint_mut(v: &mut [f32], a: Range<usize>, b: Range<usize>) -> (&mut [f32], &mut [f32]) {
    let swap = b.start < a.start;
    let (first, second) = if swap { (b, a) } else { (a, b) };
    let (lo, hi) = v.split_at_mut(second.start);
    let (x, y) = (&mut lo[first], &mut hi[..second.len()]);
    if swap {
        (y, x)
    } else {
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardStore;
    use crate::value::DenseVec;
    use proptest::prelude::*;

    fn cache(parts: u32) -> WorkerCache<DenseVec> {
        WorkerCache::new(PartitionMap::new(parts).expect("nonzero"))
    }

    fn dv(xs: &[f32]) -> DenseVec {
        DenseVec::from(xs.to_vec())
    }

    #[test]
    fn worker_sees_own_writes_immediately() {
        let mut c = cache(2);
        c.refresh(ParamKey(0), &[1.0]);
        c.update(ParamKey(0), &dv(&[0.5]));
        assert_eq!(c.row(ParamKey(0)), &[1.5]);
        assert!(c.has_pending());
    }

    #[test]
    fn refresh_preserves_pending_local_updates() {
        let mut c = cache(2);
        c.refresh(ParamKey(0), &[1.0]);
        c.update(ParamKey(0), &dv(&[10.0]));
        // Server meanwhile advanced to 5.0 (others' updates included).
        c.refresh(ParamKey(0), &[5.0]);
        // Local view = fresh server value + our unflushed delta.
        assert_eq!(c.row(ParamKey(0)), &[15.0]);
    }

    #[test]
    fn flush_groups_by_partition_and_drains() {
        let mut c = cache(2);
        c.update(ParamKey(0), &dv(&[1.0])); // partition 0
        c.update(ParamKey(1), &dv(&[2.0])); // partition 1
        c.update(ParamKey(2), &dv(&[3.0])); // partition 0
        let flushed = c.flush();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].0, PartitionId(0));
        assert_eq!(flushed[0].1.len(), 2);
        assert_eq!(flushed[0].1.floats(), 2, "one buffer, sized exactly");
        assert_eq!(flushed[1].0, PartitionId(1));
        assert!(!c.has_pending());
        assert!(c.flush().is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = cache(2);
        c.update(ParamKey(0), &dv(&[1.0]));
        c.clear();
        assert!(!c.has_pending());
        assert!(c.row(ParamKey(0)).is_empty());
    }

    #[test]
    fn reserved_rows_read_as_zeros_until_touched() {
        let mut c = cache(2);
        c.reserve(ParamKey(3), 2);
        assert_eq!(c.row(ParamKey(3)), &[0.0, 0.0]);
        assert!(!c.has_pending());
        // The first delta is copied in, sign of zero included.
        c.update(ParamKey(3), &[-0.0, 1.0]);
        assert_eq!(c.row(ParamKey(3))[0].to_bits(), (-0.0f32).to_bits());
    }

    proptest! {
        /// Write-back equivalence: applying a worker's flushed batches to
        /// a shard produces the same state as applying each update to the
        /// shard directly.
        #[test]
        fn flush_equivalent_to_direct_application(
            updates in proptest::collection::vec((0u64..16, -10.0f32..10.0), 1..64)
        ) {
            let layout = PartitionMap::new(4).unwrap();
            let mut direct: ShardStore<DenseVec> = ShardStore::new(layout);
            let mut via_cache: ShardStore<DenseVec> = ShardStore::new(layout);
            let mut c: WorkerCache<DenseVec> = WorkerCache::new(layout);

            for (k, x) in &updates {
                let delta = dv(&[*x]);
                direct.apply_update(ParamKey(*k), &delta);
                c.update(ParamKey(*k), &delta);
            }
            for (_, batch) in c.flush() {
                for (k, v) in &batch {
                    via_cache.apply_update(k, v);
                }
            }
            for k in direct.keys() {
                let a = direct.read(k).unwrap().as_slice()[0];
                let b = via_cache.read(k).unwrap().as_slice()[0];
                prop_assert!((a - b).abs() <= 1e-3 * a.abs().max(1.0));
            }
        }
    }
}
