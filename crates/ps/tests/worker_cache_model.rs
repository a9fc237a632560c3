//! Property: the slab [`WorkerCache`] is *bit-identical* to the
//! hash-map cache it replaced. `Model` below is that old implementation
//! (two `HashMap`s of owned rows, scalar loops), kept only here as the
//! reference; any interleaving of update / add_lincomb /
//! add_lincomb_dot / add_lincomb_pair / refresh / flush / clear must
//! leave both with the same reads and hand the servers the same batches,
//! down to the sign of a zero. A twin cache takes every two-key step
//! through rows resolved once per pair and kept across flushes and
//! clears, and must match the keyed one.

use std::collections::HashMap;

use proptest::prelude::*;
use proteus_ps::{kernels, ParamKey, PartitionId, PartitionMap, RunRows, Values, WorkerCache};

/// Keys of an app's space `0..key_count`, near and far apart, with
/// gaps: the index grows past slots it never fills. Widths 5, 8, 11 and
/// 17 have two keys or more (11 and 17 on both sides of 1 000), so the
/// two-key step has partners to pair.
const KEYS: [u64; 12] = [0, 1, 2, 3, 5, 8, 21, 40, 500, 1 << 10, (1 << 10) + 7, 4085];

/// Per-key dimensions (K-means rows are `dim + 1`, so nothing may assume
/// one width): below, at and past the kernels' 8-lane chunk, and one
/// (key 1's) past their 64-float twin floor.
fn dim_of(key: u64) -> usize {
    [1, 75, 5, 8, 11, 17][(key % 6) as usize]
}

/// Components that stress copy-versus-add: signed zeros, subnormals,
/// values that cancel, a large magnitude.
const POOL: [f32; 10] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    f32::MIN_POSITIVE / 2.0,
    -f32::MIN_POSITIVE / 4.0,
    1.0e-40,
    3.25,
    -0.1,
    1.0e30,
];

fn row(key: u64, seed: u64) -> Vec<f32> {
    (0..dim_of(key) as u64)
        .map(|i| POOL[(seed.wrapping_mul(31).wrapping_add(i * 7) % POOL.len() as u64) as usize])
        .collect()
}

type Batches = Vec<(PartitionId, Vec<(ParamKey, Vec<u32>)>)>;

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// The pre-slab `WorkerCache`, verbatim in behaviour.
struct Model {
    layout: PartitionMap,
    cached: HashMap<ParamKey, Vec<f32>>,
    buffer: HashMap<ParamKey, Vec<f32>>,
}

fn merge(into: &mut HashMap<ParamKey, Vec<f32>>, key: ParamKey, delta: &[f32]) {
    match into.get_mut(&key) {
        Some(v) => v.iter_mut().zip(delta).for_each(|(a, b)| *a += b),
        None => {
            into.insert(key, delta.to_vec());
        }
    }
}

impl Model {
    fn update(&mut self, key: ParamKey, delta: &[f32]) {
        merge(&mut self.cached, key, delta);
        merge(&mut self.buffer, key, delta);
    }

    /// What an app did before the fused step existed: read the row (zeros
    /// if unmaterialized), build `s·x + t·row`, hand it to `update`.
    fn add_lincomb(&mut self, key: ParamKey, s: f32, x: &[f32], t: f32) {
        let zeros = vec![0.0; x.len()];
        let current = self.cached.get(&key).unwrap_or(&zeros);
        let delta: Vec<f32> = x.iter().zip(current).map(|(x, y)| s * x + t * y).collect();
        self.update(key, &delta);
    }

    /// What MLR did before its step returned the next logit:
    /// `add_lincomb`, then the dot of the updated row with `next`.
    fn add_lincomb_dot(&mut self, key: ParamKey, s: f32, x: &[f32], t: f32, next: &[f32]) -> f32 {
        self.add_lincomb(key, s, x, t);
        kernels::dot(&self.cached[&key], next)
    }

    /// What matrix factorization did before the two-key step: copy both
    /// rows as read, then `add_lincomb` on `a` with `b`'s copy and on `b`
    /// with `a`'s. Returns the copies.
    fn add_lincomb_pair(
        &mut self,
        a: ParamKey,
        b: ParamKey,
        dim: usize,
        s: f32,
        t: f32,
    ) -> (Vec<f32>, Vec<f32>) {
        let read = |key| self.cached.get(&key).cloned().unwrap_or(vec![0.0; dim]);
        let (row_a, row_b) = (read(a), read(b));
        self.add_lincomb(a, s, &row_b, t);
        self.add_lincomb(b, s, &row_a, t);
        (row_a, row_b)
    }

    fn refresh(&mut self, key: ParamKey, mut server: Vec<f32>) {
        if let Some(pending) = self.buffer.get(&key) {
            server.iter_mut().zip(pending).for_each(|(a, b)| *a += b);
        }
        self.cached.insert(key, server);
    }

    fn flush(&mut self) -> Batches {
        let mut grouped: HashMap<PartitionId, Vec<(ParamKey, Vec<u32>)>> = HashMap::new();
        for (k, v) in self.buffer.drain() {
            grouped
                .entry(self.layout.partition_of(k))
                .or_default()
                .push((k, bits(&v)));
        }
        let mut out: Batches = grouped.into_iter().collect();
        for (_, batch) in &mut out {
            batch.sort_by_key(|(k, _)| *k);
        }
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

/// Runs the two-key step on `slab` and on `model` with coefficients
/// `(s, t)`, and checks that the slab's closure saw the rows the model
/// copied.
fn pair_step(
    slab: &mut WorkerCache,
    model: &mut Model,
    (a, b): (ParamKey, ParamKey),
    dim: usize,
    (s, t): (f32, f32),
) {
    let mut seen = None;
    slab.add_lincomb_pair(a, b, dim, |row_a, row_b| {
        seen = Some((bits(row_a), bits(row_b)));
        (s, t)
    });
    let (row_a, row_b) = model.add_lincomb_pair(a, b, dim, s, t);
    assert_eq!(seen, Some((bits(&row_a), bits(&row_b))), "rows as read");
}

fn flushed_bits(batches: Vec<(PartitionId, Values)>) -> Batches {
    batches
        .into_iter()
        .map(|(p, batch)| {
            let batch = batch.iter().map(|(k, v)| (k, bits(v))).collect();
            (p, batch)
        })
        .collect()
}

proptest! {
    #[test]
    fn slab_matches_hash_map_model_bit_for_bit(
        partitions in 1u32..5,
        reserved in 0usize..KEYS.len(),
        ops in proptest::collection::vec(
            (0u8..21, 0usize..KEYS.len(), any::<u64>(), -2.0f32..2.0),
            0..80,
        ),
    ) {
        let layout = PartitionMap::new(partitions).expect("nonzero");
        let mut slab: WorkerCache = WorkerCache::new(layout);
        let mut model = Model { layout, cached: HashMap::new(), buffer: HashMap::new() };
        // `slab` as a worker running resolved runs drives it: one
        // `RunRows` per pair, resolved on first use and after a clear.
        let mut twin: WorkerCache = WorkerCache::new(layout);
        let mut runs: HashMap<(u64, u64), RunRows> = HashMap::new();
        // A worker reserves the rows its data reads; the rest of KEYS
        // stand for keys only a read response or an update ever names.
        let rows = || KEYS[..reserved].iter().map(|&k| (ParamKey(k), dim_of(k)));
        slab.reserve(rows());
        twin.reserve(rows());

        for &(op, key_index, seed, scalar) in &ops {
            let k = KEYS[key_index];
            let key = ParamKey(k);
            match op {
                0..=4 => {
                    let delta = row(k, seed);
                    slab.update(key, &delta);
                    twin.update(key, &delta);
                    model.update(key, &delta);
                }
                5..=9 => {
                    let x = row(k, seed);
                    let t = POOL[(seed % POOL.len() as u64) as usize];
                    slab.add_lincomb(key, scalar, &x, t);
                    twin.add_lincomb(key, scalar, &x, t);
                    model.add_lincomb(key, scalar, &x, t);
                }
                10..=12 => {
                    let server = row(k, seed);
                    slab.refresh(key, &server);
                    twin.refresh(key, &server);
                    model.refresh(key, server);
                }
                13 | 14 => {
                    let flushed = model.flush();
                    prop_assert_eq!(flushed_bits(twin.flush()), flushed.clone());
                    prop_assert_eq!(flushed_bits(slab.flush()), flushed);
                    prop_assert!(!slab.has_pending());
                }
                19 | 20 => {
                    let (x, next) = (row(k, seed), row(k, seed / 3));
                    let t = POOL[(seed % POOL.len() as u64) as usize];
                    let logit = slab.add_lincomb_dot(key, scalar, &x, t, &next);
                    twin.add_lincomb_dot(key, scalar, &x, t, &next);
                    let expect = model.add_lincomb_dot(key, scalar, &x, t, &next);
                    prop_assert_eq!(logit.to_bits(), expect.to_bits(), "key {}", k);
                }
                16..=18 => {
                    // Pairs `key` with a key of its width (none for the
                    // two narrowest), picked by `seed`.
                    let partners: Vec<u64> = KEYS
                        .iter()
                        .copied()
                        .filter(|&p| p != k && dim_of(p) == dim_of(k))
                        .collect();
                    if let Some(&p) = partners.get(seed as usize % partners.len().max(1)) {
                        let t = POOL[(seed % POOL.len() as u64) as usize];
                        pair_step(&mut slab, &mut model, (key, ParamKey(p)), dim_of(k), (scalar, t));
                        let run = runs.entry((k, p)).or_default();
                        let pair = (key, ParamKey(p));
                        let at = twin.resolve_pairs(run, dim_of(k), [pair]);
                        twin.add_lincomb_pair_at(pair, &at[0], dim_of(k), |_, _| (scalar, t));
                    }
                }
                _ => {
                    slab.clear();
                    twin.clear();
                    model.cached.clear();
                    model.buffer.clear();
                    // `clear` forgets reservations too; a worker re-reserves.
                    slab.reserve(rows());
                    twin.reserve(rows());
                }
            }
            prop_assert_eq!(twin.has_pending(), slab.has_pending());
            prop_assert_eq!(slab.has_pending(), !model.buffer.is_empty());
            for (i, &k) in KEYS.iter().enumerate() {
                let expect = match model.cached.get(&ParamKey(k)) {
                    Some(v) => bits(v),
                    // Never cached: zeros if reserved, no row otherwise.
                    None if i < reserved => bits(&vec![0.0; dim_of(k)]),
                    None => {
                        prop_assert!(slab.row(ParamKey(k)).is_empty());
                        continue;
                    }
                };
                prop_assert_eq!(bits(slab.row(ParamKey(k))), expect.clone(), "key {}", k);
                prop_assert_eq!(bits(twin.row(ParamKey(k))), expect, "resolved, key {}", k);
            }
        }
        let flushed = model.flush();
        prop_assert_eq!(flushed_bits(twin.flush()), flushed.clone());
        prop_assert_eq!(flushed_bits(slab.flush()), flushed);
    }

    /// The flush walk against sorting the dirty list, on a cache that
    /// gains slots between flushes (reserved ahead, or made by a
    /// delta), is cleared, and is touched sparsely: a few dirty rows
    /// among up to forty slots, near and far apart, of five widths.
    #[test]
    fn flush_walk_emits_what_sorting_the_dirty_list_emits(
        partitions in 1u32..6,
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..40, 0..8),
                proptest::collection::vec((0usize..40, any::<u64>()), 0..6),
                0u8..8,
            ),
            1..16,
        ),
    ) {
        // Twenty keys below 100 and twenty from 1 024 up.
        let key = |i: usize| match i {
            0..20 => ParamKey(i as u64 * 5 + i as u64 % 3),
            _ => ParamKey((1 << 10) + (i as u64 - 20) * 3),
        };
        let width = |k: ParamKey| [1, 2, 8, 11, 16][(k.0 % 5) as usize];
        let layout = PartitionMap::new(partitions).expect("nonzero");
        let mut slab: WorkerCache = WorkerCache::new(layout);
        let mut model = Model { layout, cached: HashMap::new(), buffer: HashMap::new() };
        for (reserve, touches, cleared) in &rounds {
            if *cleared == 0 {
                slab.clear();
                model.cached.clear();
                model.buffer.clear();
            }
            // One batch, duplicates and keys seen before included.
            slab.reserve(reserve.iter().map(|&i| (key(i), width(key(i)))));
            for &(i, seed) in touches {
                let (k, salt) = (key(i), seed % POOL.len() as u64);
                let delta: Vec<f32> = (0..width(k) as u64)
                    .map(|j| POOL[((salt + j * 3) % POOL.len() as u64) as usize])
                    .collect();
                slab.update(k, &delta);
                model.update(k, &delta);
            }
            prop_assert_eq!(slab.has_pending(), !model.buffer.is_empty());
            prop_assert_eq!(flushed_bits(slab.flush()), model.flush());
            prop_assert!(!slab.has_pending());
        }
    }
}

/// How a key stands just before a two-key step: each (present, dirty)
/// pair of the slab's flags, by every route to it.
#[derive(Debug, Clone, Copy)]
enum Before {
    /// No slot at all: the step reserves one (not present, not dirty).
    Unseen,
    /// Not present, not dirty.
    Reserved,
    /// Present, not dirty, its buffer never written.
    Refreshed,
    /// Present, not dirty, its buffer holding a flushed delta.
    Flushed,
    /// Present through a delta alone, not dirty, buffer flushed.
    FlushedUnrefreshed,
    /// Present and dirty.
    Dirty,
    /// Present through a delta alone, and dirty.
    DirtyUnrefreshed,
}

const BEFORE: [Before; 7] = [
    Before::Unseen,
    Before::Reserved,
    Before::Refreshed,
    Before::Flushed,
    Before::FlushedUnrefreshed,
    Before::Dirty,
    Before::DirtyUnrefreshed,
];

/// Coefficients with a signed zero or an extreme among them: a delta
/// of `-0.0` into a zero row or an unwritten buffer tells a copy from an
/// add, and a `1e30` or a subnormal one tells an add of the stale
/// buffer from none.
const COEFFS: [(f32, f32); 6] = [
    (1.0, -1.0),
    (-0.0, -0.1),
    (3.25, 0.0),
    (-1.0, -0.0),
    (1.0e30, 1.0e-40),
    (-0.1, f32::MIN_POSITIVE / 2.0),
];

/// Two near keys, a near and a far one either way, two far ones.
const PAIRS: [(u64, u64); 4] = [
    (3, 500),
    (3, (1 << 10) + 7),
    ((1 << 10) + 7, 3),
    ((1 << 10) + 7, 4085),
];

/// Brings `key` to `before` on both sides; `flushing` is the phase
/// before the one flush, which the `Flushed*` states need.
fn set_up(
    slab: &mut WorkerCache,
    model: &mut Model,
    (key, dim, seed): (ParamKey, usize, u64),
    before: Before,
    flushing: bool,
) {
    let value = |salt: u64| -> Vec<f32> {
        (0..dim as u64)
            .map(|i| POOL[((seed + salt).wrapping_mul(31).wrapping_add(i * 7) % 10) as usize])
            .collect()
    };
    let (refresh, reserve, delta) = match (before, flushing) {
        (Before::Flushed, true) | (Before::Dirty, false) => (true, false, true),
        (Before::FlushedUnrefreshed, true) | (Before::DirtyUnrefreshed, false) => {
            (false, true, true)
        }
        (Before::Refreshed, false) => (true, false, false),
        (Before::Reserved, false) => (false, true, false),
        _ => return,
    };
    if reserve {
        slab.reserve([(key, dim)]);
    }
    if refresh {
        slab.refresh(key, &value(1));
        model.refresh(key, value(1));
    }
    if delta {
        slab.update(key, &value(2));
        model.update(key, &value(2));
    }
}

#[test]
fn pair_step_matches_two_add_lincombs_in_every_state() {
    let layout = PartitionMap::new(3).expect("nonzero");
    for dim in 1..=17 {
        for (p, &(a, b)) in PAIRS.iter().enumerate() {
            let (a, b) = (ParamKey(a), ParamKey(b));
            for (i, &before_a) in BEFORE.iter().enumerate() {
                for (j, &before_b) in BEFORE.iter().enumerate() {
                    for (c, &st) in COEFFS.iter().enumerate() {
                        let case =
                            format!("dim {dim}, {a:?} {before_a:?}, {b:?} {before_b:?}, {st:?}");
                        let seed = (dim * 131 + p * 37 + i * 11 + j * 5 + c) as u64;
                        let mut slab: WorkerCache = WorkerCache::new(layout);
                        let mut model = Model {
                            layout,
                            cached: HashMap::new(),
                            buffer: HashMap::new(),
                        };
                        let mut twin: WorkerCache = WorkerCache::new(layout);
                        let mut unused = Model {
                            layout,
                            cached: HashMap::new(),
                            buffer: HashMap::new(),
                        };
                        for flushing in [true, false] {
                            for (cache, model) in
                                [(&mut slab, &mut model), (&mut twin, &mut unused)]
                            {
                                set_up(cache, model, (a, dim, seed), before_a, flushing);
                                set_up(cache, model, (b, dim, seed + 3), before_b, flushing);
                            }
                            if flushing {
                                let flushed = model.flush();
                                assert_eq!(flushed_bits(twin.flush()), flushed, "{case}");
                                assert_eq!(flushed_bits(slab.flush()), flushed, "{case}");
                            }
                        }
                        // The twin's pass resolves its run, then reuses it,
                        // and after a clear resolves it again.
                        let mut run = RunRows::default();
                        for pass in ["resolving", "reusing", "after clear"] {
                            if pass == "after clear" {
                                slab.clear();
                                twin.clear();
                                model.cached.clear();
                                model.buffer.clear();
                            }
                            pair_step(&mut slab, &mut model, (a, b), dim, st);
                            let at = twin.resolve_pairs(&mut run, dim, [(a, b)]);
                            twin.add_lincomb_pair_at((a, b), &at[0], dim, |_, _| st);
                            for key in [a, b] {
                                let expect = bits(&model.cached[&key]);
                                assert_eq!(bits(slab.row(key)), expect, "{case}: {key:?}");
                                assert_eq!(bits(twin.row(key)), expect, "{case}, {pass}");
                            }
                            let flushed = model.flush();
                            assert_eq!(flushed_bits(twin.flush()), flushed, "{case}, {pass}");
                            assert_eq!(flushed_bits(slab.flush()), flushed, "{case}");
                        }
                    }
                }
            }
        }
    }
}

/// The fused step against `add_lincomb` then `dot` on the model, from
/// every route to each `(present, dirty)` state, at widths on both sides
/// of the kernels' 64-float twin floor.
#[test]
fn lincomb_dot_step_matches_add_lincomb_then_dot_in_every_state() {
    let layout = PartitionMap::new(3).expect("nonzero");
    let dims = (1..=17).chain([63, 64, 65, 72, 75, 512]);
    for dim in dims {
        for (p, &key) in [3, 500, (1 << 10) + 7, 4085].iter().enumerate() {
            let key = ParamKey(key);
            for (i, &before) in BEFORE.iter().enumerate() {
                for (c, &(s, t)) in COEFFS.iter().enumerate() {
                    let case = format!("dim {dim}, {key:?} {before:?}, {:?}", (s, t));
                    let seed = (dim * 131 + p * 37 + i * 11 + c) as u64;
                    let pick = |salt: u64| -> Vec<f32> {
                        (0..dim as u64)
                            .map(|j| POOL[((seed + salt) * 13 + j * 3) as usize % POOL.len()])
                            .collect()
                    };
                    let mut slab: WorkerCache = WorkerCache::new(layout);
                    let mut model = Model {
                        layout,
                        cached: HashMap::new(),
                        buffer: HashMap::new(),
                    };
                    for flushing in [true, false] {
                        set_up(&mut slab, &mut model, (key, dim, seed), before, flushing);
                        if flushing {
                            assert_eq!(flushed_bits(slab.flush()), model.flush(), "{case}");
                        }
                    }
                    let (x, next) = (pick(5), pick(7));
                    let logit = slab.add_lincomb_dot(key, s, &x, t, &next);
                    let expect = model.add_lincomb_dot(key, s, &x, t, &next);
                    assert_eq!(logit.to_bits(), expect.to_bits(), "{case}: logit");
                    assert_eq!(bits(slab.row(key)), bits(&model.cached[&key]), "{case}");
                    assert_eq!(flushed_bits(slab.flush()), model.flush(), "{case}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "two distinct keys")]
fn pair_step_rejects_one_key_twice() {
    let mut slab: WorkerCache = WorkerCache::new(PartitionMap::new(2).expect("nonzero"));
    slab.refresh(ParamKey(3), &[1.0, 2.0]);
    slab.add_lincomb_pair(ParamKey(3), ParamKey(3), 2, |_, _| (1.0, 1.0));
}

#[test]
#[should_panic(expected = "width mismatch")]
fn pair_step_rejects_rows_of_two_widths() {
    let mut slab: WorkerCache = WorkerCache::new(PartitionMap::new(2).expect("nonzero"));
    slab.refresh(ParamKey(3), &[1.0, 2.0]);
    slab.refresh(ParamKey(5), &[1.0, 2.0, 3.0]);
    slab.add_lincomb_pair(ParamKey(3), ParamKey(5), 2, |_, _| (1.0, 1.0));
}
