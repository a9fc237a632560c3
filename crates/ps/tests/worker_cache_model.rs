//! Property: the slab [`WorkerCache`] is *bit-identical* to the
//! hash-map cache it replaced. `Model` below is that old implementation
//! (two `HashMap`s of owned rows, scalar loops), kept only here as the
//! reference; any interleaving of update / add_lincomb /
//! add_lincomb_pair / refresh / flush / clear must leave both with the
//! same reads and hand the servers the same batches, down to the sign of
//! a zero.

use std::collections::HashMap;

use proptest::prelude::*;
use proteus_ps::{ParamKey, PartitionId, PartitionMap, Values, WorkerCache};

/// Keys on both sides of the dense-index limit (`1 << 22`), with gaps.
/// The last dense key itself costs a 32 MB index per case, so it gets a
/// test of its own below. Widths 5, 8, 11 and 17 have two keys or more
/// (11 and 17 on both sides of the limit), so the two-key step has
/// partners to pair.
const KEYS: [u64; 12] = [
    0,
    1,
    2,
    3,
    5,
    8,
    21,
    40,
    500,
    1 << 22,
    (1 << 22) + 7,
    u64::MAX / 3,
];

/// Per-key dimensions (K-means rows are `dim + 1`, so nothing may assume
/// one width): below, at and past the kernels' 8-lane chunk.
fn dim_of(key: u64) -> usize {
    [1, 2, 5, 8, 11, 17][(key % 6) as usize]
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
            (0u8..19, 0usize..KEYS.len(), any::<u64>(), -2.0f32..2.0),
            0..80,
        ),
    ) {
        let layout = PartitionMap::new(partitions).expect("nonzero");
        let mut slab: WorkerCache = WorkerCache::new(layout);
        let mut model = Model { layout, cached: HashMap::new(), buffer: HashMap::new() };
        // A worker reserves the rows its data reads; the rest of KEYS
        // stand for keys only a read response or an update ever names.
        for &k in &KEYS[..reserved] {
            slab.reserve(ParamKey(k), dim_of(k));
        }

        for &(op, key_index, seed, scalar) in &ops {
            let k = KEYS[key_index];
            let key = ParamKey(k);
            match op {
                0..=4 => {
                    let delta = row(k, seed);
                    slab.update(key, &delta);
                    model.update(key, &delta);
                }
                5..=9 => {
                    let x = row(k, seed);
                    let t = POOL[(seed % POOL.len() as u64) as usize];
                    slab.add_lincomb(key, scalar, &x, t);
                    model.add_lincomb(key, scalar, &x, t);
                }
                10..=12 => {
                    let server = row(k, seed);
                    slab.refresh(key, &server);
                    model.refresh(key, server);
                }
                13 | 14 => {
                    prop_assert_eq!(flushed_bits(slab.flush()), model.flush());
                    prop_assert!(!slab.has_pending());
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
                    }
                }
                _ => {
                    slab.clear();
                    model.cached.clear();
                    model.buffer.clear();
                    // `clear` forgets reservations too; a worker re-reserves.
                    for &k in &KEYS[..reserved] {
                        slab.reserve(ParamKey(k), dim_of(k));
                    }
                }
            }
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
                prop_assert_eq!(bits(slab.row(ParamKey(k))), expect, "key {}", k);
            }
        }
        prop_assert_eq!(flushed_bits(slab.flush()), model.flush());
    }
}

#[test]
fn keys_either_side_of_the_dense_limit_keep_separate_rows() {
    let mut slab: WorkerCache = WorkerCache::new(PartitionMap::new(3).expect("nonzero"));
    let (last_dense, first_spilled) = (ParamKey((1 << 22) - 1), ParamKey(1 << 22));
    slab.update(last_dense, &[1.0]);
    slab.update(first_spilled, &[2.0, 3.0]);
    slab.update(last_dense, &[0.5]);
    assert_eq!(slab.row(last_dense), &[1.5]);
    assert_eq!(slab.row(first_spilled), &[2.0, 3.0]);
    let flushed: usize = slab.flush().iter().map(|(_, batch)| batch.len()).sum();
    assert_eq!(flushed, 2);
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

/// Dense with dense, dense with spilled either way, spilled with spilled.
const PAIRS: [(u64, u64); 4] = [
    (3, 500),
    (3, (1 << 22) + 7),
    ((1 << 22) + 7, 3),
    ((1 << 22) + 7, u64::MAX / 3),
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
        slab.reserve(key, dim);
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
                        for flushing in [true, false] {
                            set_up(&mut slab, &mut model, (a, dim, seed), before_a, flushing);
                            set_up(
                                &mut slab,
                                &mut model,
                                (b, dim, seed + 3),
                                before_b,
                                flushing,
                            );
                            if flushing {
                                assert_eq!(flushed_bits(slab.flush()), model.flush(), "{case}");
                            }
                        }
                        pair_step(&mut slab, &mut model, (a, b), dim, st);
                        for key in [a, b] {
                            let expect = bits(&model.cached[&key]);
                            assert_eq!(bits(slab.row(key)), expect, "{case}: {key:?}");
                        }
                        assert_eq!(flushed_bits(slab.flush()), model.flush(), "{case}");
                    }
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
