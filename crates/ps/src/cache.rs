//! The worker-side parameter cache with write-back update buffering.
//!
//! To reduce cross-machine traffic, parameter-server implementations ship
//! a worker-side library that caches parameter values and buffers updates
//! (Sec. 2.1). Worker threads read rows and add deltas; deltas apply to
//! the local cached copy immediately (so the worker sees its own writes)
//! and accumulate in a write-back buffer that is flushed to the server
//! shards once per clock.
//!
//! # Layout: one slab behind one index
//!
//! Every key the cache has seen owns a *slot*: `2 · dim` floats of one
//! flat `f32` slab from an offset `start`, the cached row (server value
//! as of the last refresh plus this worker's own unflushed deltas)
//! followed by the buffered delta (those unflushed deltas alone). A
//! slot's `present` and `dirty` flags are one byte of a table with a
//! byte per two slab floats, at `start / 2`, so the offset alone finds
//! a slot's rows and its flags. Keys index a dense slot table (a hash
//! spill takes keys past `ShardStore`'s dense limit), so a keyed step is
//! an array index and an in-place kernel — no hashing, no allocation.
//!
//! # Resolved runs
//!
//! A slot's offset never moves until [`WorkerCache::clear`], so a run of
//! data whose keys never change can look them up once: a [`RunRows`]
//! holds each datum's two [`RowPos`]es (slab offsets, 4 bytes a key),
//! filled by [`WorkerCache::resolve_pairs`] on the run's first
//! pass and on its first pass after a `clear`, and read back by
//! [`WorkerCache::add_lincomb_pair_at`] with no index or slot load on
//! the way to the rows.
//!
//! # Flush order
//!
//! `flush` emits in `(partition, key)` order. It walks a list of every
//! slot in that order, sorted again only when slots were added since,
//! and takes the dirty ones, so a clock's flush sorts nothing.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::kernels;
use crate::partition::{ParamKey, PartitionId, PartitionMap};
use crate::shard::DENSE_SLOT_LIMIT;
use crate::value::DenseVec;
use crate::values::{Rows, Values};

const NO_SLOT: usize = usize::MAX;

/// A slot's flag bit: the cached row holds a value. A reserved row reads
/// as zeros until its first refresh or delta, which is *copied* in.
const PRESENT: u8 = 1;
/// A slot's flag bit: the buffered delta is unflushed (then `PRESENT`
/// too).
const DIRTY: u8 = 2;

/// The source of cache generations: every cache, and every `clear`, takes
/// a number no other cache has held, so a [`RunRows`] resolved elsewhere
/// or before a `clear` never reads as current.
static GENERATIONS: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    // Relaxed: the number publishes no other data; it need only be new.
    GENERATIONS.fetch_add(1, Ordering::Relaxed)
}

/// One key's place in the slab.
#[derive(Debug, Clone)]
struct Slot {
    /// Destination partition, then key: the order `flush` emits in.
    order: (PartitionId, ParamKey),
    /// Where the cached row starts; the buffered delta follows it.
    start: usize,
    dim: usize,
}

/// Where one key's rows sit in a cache: their slab offset. Valid until
/// that cache's next [`WorkerCache::clear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPos(u32);

impl RowPos {
    /// The slab offset.
    #[inline]
    fn start(self) -> usize {
        self.0 as usize
    }

    /// The slab range of the cached row and the buffered delta.
    #[inline]
    fn span(self, dim: usize) -> Range<usize> {
        self.start()..self.start() + 2 * dim
    }
}

/// A run of data's two-key steps, resolved: each datum's pair of
/// [`RowPos`]es in one cache. It carries the cache generation it was
/// resolved under, so it is filled on the run's first pass and again
/// only after that cache's `clear`.
#[derive(Debug, Clone, Default)]
pub struct RunRows {
    /// Zero until first resolved.
    generation: u64,
    pairs: Vec<[RowPos; 2]>,
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
    /// `PRESENT | DIRTY` bits of the slot at slab offset `start`, at
    /// `start / 2`: a slot spans two floats or more, so no two share a
    /// byte.
    flags: Vec<u8>,
    /// Per slot, the cached row and then the buffered delta.
    slab: Vec<f32>,
    /// How many slots have `DIRTY` set.
    pending: usize,
    /// Slots in `(partition, key)` order; the slots past its length were
    /// added since it was last sorted.
    order: Vec<usize>,
    /// Which [`RunRows`] are current: changed by `clear`.
    generation: u64,
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
            flags: Vec::new(),
            slab: Vec::new(),
            pending: 0,
            order: Vec::new(),
            generation: next_generation(),
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
        self.reserve([(key, dim)]);
        slot
    }

    /// Marks the slot at slab offset `start` as holding a value and a
    /// pending delta; returns whether it held each before.
    #[inline]
    fn touch(&mut self, start: usize) -> (bool, bool) {
        let flags = &mut self.flags[start / 2];
        let was = *flags;
        *flags = PRESENT | DIRTY;
        self.pending += usize::from(was & DIRTY == 0);
        (was & PRESENT != 0, was & DIRTY != 0)
    }

    /// The cached and buffered rows of `slot`.
    #[inline]
    fn rows_mut(&mut self, slot: usize) -> (&mut [f32], &mut [f32]) {
        let Slot { start, dim, .. } = self.slots[slot];
        self.slab[start..start + 2 * dim].split_at_mut(dim)
    }

    /// Gives each `(key, dim)` of `rows` a zero row of `dim` components
    /// without marking it cached, so [`WorkerCache::row`] has a row of
    /// the right shape to return before the first refresh. A key already
    /// seen (earlier in `rows` too) is left alone. The new slots are
    /// placed in `rows` order. A first pass over `rows` counts the keys
    /// and finds the largest, so the slots, the key index, the spill
    /// map, the slab and its flags each grow once for them all.
    pub fn reserve<I>(&mut self, rows: I)
    where
        I: IntoIterator<Item = (ParamKey, usize)>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        // At most this many slots are new (a key seen before counts too).
        let (mut fresh, mut spilled, mut top) = (0, 0, None);
        for (key, _) in rows.clone() {
            fresh += 1;
            if key.0 < DENSE_SLOT_LIMIT {
                top = top.max(Some(key.0 as usize));
            } else {
                spilled += 1;
            }
        }
        self.slots.reserve(fresh);
        self.spill.reserve(spilled);
        if let Some(top) = top.filter(|&top| top >= self.index.len()) {
            self.index.resize(top + 1, NO_SLOT);
        }
        let mut end = self.slab.len();
        for (key, dim) in rows {
            if self.slot(key).is_some() {
                continue;
            }
            let slot = self.slots.len();
            if key.0 < DENSE_SLOT_LIMIT {
                self.index[key.0 as usize] = slot;
            } else {
                self.spill.insert(key.0, slot);
            }
            self.slots.push(Slot {
                order: (self.layout.partition_of(key), key),
                start: end,
                dim,
            });
            // Two floats at least, so even an empty row has flags of its own.
            end += 2 * dim.max(1);
        }
        self.slab.resize(end, 0.0);
        self.flags.resize(end / 2, 0);
    }

    /// The local view of `key`: its cached row, zeros for a key only
    /// reserved so far, and the empty slice for a key never seen.
    #[inline]
    pub fn row(&self, key: ParamKey) -> &[f32] {
        match self.slot(key) {
            Some(slot) => {
                let Slot { start, dim, .. } = self.slots[slot];
                &self.slab[start..start + dim]
            }
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
        let (was_present, was_dirty) = self.touch(self.slots[slot].start);
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
        let (was_present, was_dirty) = self.touch(self.slots[slot].start);
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
        let (was_present, was_dirty) = self.touch(self.slots[slot].start);
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
    /// with `B`, then on `b` with `A` — but each key is looked up once
    /// and nothing is copied.
    ///
    /// This is [`WorkerCache::resolve_pairs`] and
    /// [`WorkerCache::add_lincomb_pair_at`] for one pair; a run of data
    /// that repeats its pairs every pass resolves them once instead.
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
        let at = self.resolve_pair(a, b, dim);
        self.add_lincomb_pair_at((a, b), &at, dim, coeffs);
    }

    /// Where `key`'s rows sit, reserving `dim` zeros for a key not seen
    /// before.
    ///
    /// # Panics
    ///
    /// Panics if the key's row is not `dim` wide, or if the slab has
    /// outgrown 32-bit offsets.
    fn resolve(&mut self, key: ParamKey, dim: usize) -> RowPos {
        let slot = self.slot_or_reserve(key, dim);
        let Slot {
            start, dim: width, ..
        } = self.slots[slot];
        assert_eq!(width, dim, "width mismatch in add_lincomb_pair");
        assert!(
            u32::try_from(start + 2 * dim).is_ok(),
            "worker cache slab past 32-bit offsets"
        );
        RowPos(start as u32)
    }

    fn resolve_pair(&mut self, a: ParamKey, b: ParamKey, dim: usize) -> [RowPos; 2] {
        assert_ne!(a, b, "add_lincomb_pair needs two distinct keys");
        [self.resolve(a, dim), self.resolve(b, dim)]
    }

    /// The resolved rows of a run of two-key steps: `rows` as it stands
    /// if it was resolved in this cache since its last `clear`, or else
    /// `pairs` resolved into it now (in order, reserving `dim` zeros for
    /// each key not seen before, as [`WorkerCache::add_lincomb_pair`]
    /// does). A run's pairs must be the same on every pass.
    ///
    /// # Panics
    ///
    /// Panics, when resolving, if a pair's keys are equal or either row
    /// is not `dim` wide.
    pub fn resolve_pairs<'r>(
        &mut self,
        rows: &'r mut RunRows,
        dim: usize,
        pairs: impl IntoIterator<Item = (ParamKey, ParamKey)>,
    ) -> &'r [[RowPos; 2]] {
        if rows.generation != self.generation {
            let pairs = pairs.into_iter();
            rows.pairs.clear();
            rows.pairs.reserve_exact(pairs.size_hint().0);
            for (a, b) in pairs {
                rows.pairs.push(self.resolve_pair(a, b, dim));
            }
            rows.generation = self.generation;
        }
        &rows.pairs
    }

    /// [`WorkerCache::add_lincomb_pair`] on rows already resolved by
    /// [`WorkerCache::resolve_pairs`]: no index or slot lookup on the
    /// way to the rows. `keys` are the pair's keys, checked against `at`
    /// in debug builds only.
    ///
    /// Each key's first-delta rule (a delta is copied into a row never
    /// refreshed and into a buffer flushed since, so a `-0.0` survives)
    /// is a select inside the one loop. Branching on the flags outside
    /// it would take one loop per combination of them, each to be kept
    /// bit-equal to the others by hand.
    ///
    /// # Panics
    ///
    /// Panics if `at` does not address two rows of this cache's slab.
    #[inline]
    pub fn add_lincomb_pair_at(
        &mut self,
        keys: (ParamKey, ParamKey),
        &[at_a, at_b]: &[RowPos; 2],
        dim: usize,
        coeffs: impl FnOnce(&[f32], &[f32]) -> (f32, f32),
    ) {
        debug_assert!(
            self.is_at(keys.0, at_a, dim) && self.is_at(keys.1, at_b, dim),
            "stale resolved rows for {keys:?}"
        );
        let was_a = self.touch(at_a.start());
        let was_b = self.touch(at_b.start());
        let (rows_a, rows_b) = disjoint_mut(&mut self.slab, at_a.span(dim), at_b.span(dim));
        let (row_a, acc_a) = rows_a.split_at_mut(dim);
        let (row_b, acc_b) = rows_b.split_at_mut(dim);
        let st = coeffs(row_a, row_b);
        lincomb_pair_step(row_a, row_b, acc_a, acc_b, st, was_a, was_b);
    }

    /// Whether `at` is where `key`'s `dim`-wide rows sit now.
    fn is_at(&self, key: ParamKey, at: RowPos, dim: usize) -> bool {
        self.slot(key).is_some_and(|slot| {
            let s = &self.slots[slot];
            s.start == at.start() && s.dim == dim
        })
    }

    /// Installs a fresh server value, *preserving* any still-buffered local
    /// updates on top (so the worker continues to see its own writes).
    ///
    /// # Panics
    ///
    /// Panics if `server_row`'s dimension differs from the key's row.
    pub fn refresh(&mut self, key: ParamKey, server_row: &[f32]) {
        let slot = self.slot_or_reserve(key, server_row.len());
        let flags = &mut self.flags[self.slots[slot].start / 2];
        *flags |= PRESENT;
        let dirty = *flags & DIRTY != 0;
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
        let mut out = Vec::new();
        if self.pending == 0 {
            return out;
        }
        self.sort_order();
        let WorkerCache {
            slots,
            flags,
            slab,
            order,
            ..
        } = self;
        let mut left = self.pending;
        for group in order.chunk_by(|&x, &y| slots[x].order.0 == slots[y].order.0) {
            let dirty = || {
                group
                    .iter()
                    .map(|&slot| &slots[slot])
                    .filter(|s| flags[s.start / 2] & DIRTY != 0)
            };
            let (rows, floats) = dirty().fold((0, 0), |(n, f), s| (n + 1, f + s.dim));
            if rows == 0 {
                continue;
            }
            let mut batch = Rows::with_capacity(rows, floats);
            for &slot in group {
                let Slot { order, start, dim } = slots[slot];
                let flags = &mut flags[start / 2];
                if *flags & DIRTY != 0 {
                    *flags &= !DIRTY;
                    batch.push(order.1, &slab[start + dim..start + 2 * dim]);
                }
            }
            out.push((slots[group[0]].order.0, Values::from_rows(batch)));
            left -= rows;
            if left == 0 {
                break;
            }
        }
        self.pending = 0;
        out
    }

    /// Brings `order` up to date: appends the slots added since it was
    /// last sorted and sorts again. The sorted prefix is one run, so the
    /// stable sort merges it with the new slots in about linear time.
    fn sort_order(&mut self) {
        if self.order.len() == self.slots.len() {
            return;
        }
        self.order.extend(self.order.len()..self.slots.len());
        let slots = &self.slots;
        self.order.sort_by_key(|&slot| slots[slot].order);
    }

    /// Whether unflushed updates exist.
    pub fn has_pending(&self) -> bool {
        self.pending > 0
    }

    /// Drops all cached values and pending updates (used when a worker's
    /// assignment is rolled back to a recovered snapshot). Every
    /// [`RunRows`] resolved here goes stale.
    pub fn clear(&mut self) {
        self.index.clear();
        self.spill.clear();
        self.slots.clear();
        self.flags.clear();
        self.slab.clear();
        self.pending = 0;
        self.order.clear();
        self.generation = next_generation();
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

/// The loop of [`WorkerCache::add_lincomb_pair_at`], given the two keys'
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
        c.reserve([(ParamKey(3), 2)]);
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
