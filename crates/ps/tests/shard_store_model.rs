//! Property: the flat-slab [`ShardStore`] is *bit-identical* to a plain
//! ordered map of rows. `Model` below keeps the values and the dirty
//! aggregate as two `BTreeMap<key, Vec<f32>>`s of owned rows; any
//! script of install / apply / export / import / drop / dirty drains must
//! leave both with the same bits after every step — values, dirty
//! aggregate, key order of every image — down to the sign of a zero and
//! the payload of a NaN.
//!
//! A second property holds the batched read to the per-key one: a
//! `read_rows` that walks its `KeySet`'s strided runs returns what a
//! `read` of each key returns, bit for bit and in key order.
//!
//! A third property pins the payload type itself: [`Values`] iterates
//! in push order, reports the per-pair wire size and shares its buffer
//! with its clones.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proteus_ps::{kernels, KeySet, ParamKey, PartitionId, PartitionMap, ShardStore, Values};

/// Keys of an app's space `0..key_count`, near and far apart: from 5 012
/// up, a slab's slot table grows past slots it never fills at every
/// partition count drawn below (1–4).
const KEYS: [u64; 10] = [0, 1, 2, 3, 8, 21, 500, 5012, 5019, 12257];

/// Per-key widths from 1 to 17: below, at, and past the kernels' 8-lane
/// chunk.
fn dim_of(key: u64) -> usize {
    1 + (key.wrapping_mul(7) % 17) as usize
}

/// Components that stress copy-versus-add and bit equality: signed
/// zeros, subnormals, NaNs with payloads (quiet and signalling, both
/// signs), values that cancel, a large magnitude.
fn pool() -> [f32; 12] {
    [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::MIN_POSITIVE / 2.0,
        -1.0e-40,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xff80_0001),
        3.25,
        -0.1,
        1.0e30,
        -1.0e30,
    ]
}

fn row(dim: usize, seed: u64) -> Vec<f32> {
    let pool = pool();
    (0..dim as u64)
        .map(|i| pool[(seed.wrapping_mul(31).wrapping_add(i * 7) % pool.len() as u64) as usize])
        .collect()
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

type Image = Vec<(u64, Vec<u32>)>;

fn image_bits(values: &Values) -> Image {
    values.iter().map(|(k, v)| (k.0, bits(v))).collect()
}

/// The store's contract, spelled as two ordered maps.
struct Model {
    layout: PartitionMap,
    values: BTreeMap<u64, Vec<f32>>,
    dirty: BTreeMap<u64, Vec<f32>>,
}

/// Adds `delta` into `key`'s entry, or inserts a copy of it. The add is
/// the crate's kernel: which payload `NaN + NaN` keeps depends on the
/// operand order the compiler picks, so a loop of the model's own could
/// differ from the store in release builds without either being wrong.
fn merge(into: &mut BTreeMap<u64, Vec<f32>>, key: u64, delta: &[f32]) {
    match into.get_mut(&key) {
        Some(v) => kernels::add_assign(v, delta),
        None => {
            into.insert(key, delta.to_vec());
        }
    }
}

impl Model {
    fn in_partition(&self, key: u64, p: PartitionId) -> bool {
        self.layout.partition_of(ParamKey(key)) == p
    }

    fn install(&mut self, key: u64, value: &[f32]) {
        self.values.insert(key, value.to_vec());
        self.dirty.remove(&key);
    }

    fn apply(&mut self, key: u64, delta: &[f32]) {
        merge(&mut self.values, key, delta);
        merge(&mut self.dirty, key, delta);
    }

    fn export(&self, p: PartitionId) -> Image {
        (self.values.iter())
            .filter(|(k, _)| self.in_partition(**k, p))
            .map(|(k, v)| (*k, bits(v)))
            .collect()
    }

    fn drop_partition(&mut self, p: PartitionId) -> usize {
        let before = self.values.len();
        let layout = self.layout;
        let keep = |k: &u64, _: &mut Vec<f32>| layout.partition_of(ParamKey(*k)) != p;
        self.values.retain(keep);
        self.dirty.retain(keep);
        before - self.values.len()
    }

    fn take_dirty_partition(&mut self, p: PartitionId) -> Image {
        let taken: Image = (self.dirty.iter())
            .filter(|(k, _)| self.in_partition(**k, p))
            .map(|(k, v)| (*k, bits(v)))
            .collect();
        for (k, _) in &taken {
            self.dirty.remove(k);
        }
        taken
    }

    fn dirty_bits(&self) -> Image {
        self.dirty.iter().map(|(k, v)| (*k, bits(v))).collect()
    }

    /// The width the next delta for `key` must have.
    fn width(&self, key: u64) -> usize {
        self.values.get(&key).map_or(dim_of(key), Vec::len)
    }
}

/// Every observable of the store, compared with the model — without
/// disturbing the store (the dirty aggregate is drained from a clone).
fn same_state(store: &ShardStore, model: &Model) {
    let layout = model.layout;
    for p in layout.partitions() {
        prop_assert_eq!(image_bits(&store.export_partition(p)), model.export(p));
    }
    let dirty: Image = (store.clone().take_dirty().iter())
        .map(|(k, v)| (k.0, bits(v.as_slice())))
        .collect();
    prop_assert_eq!(dirty, model.dirty_bits());
    let dirty_parts: Vec<PartitionId> = (layout.partitions())
        .filter(|p| model.dirty.keys().any(|k| model.in_partition(*k, *p)))
        .collect();
    prop_assert_eq!(store.dirty_partitions(), dirty_parts);
    prop_assert_eq!(store.has_dirty(), !model.dirty.is_empty());
    let keys: Vec<u64> = store.keys().iter().map(|k| k.0).collect();
    prop_assert_eq!(keys, model.values.keys().copied().collect::<Vec<_>>());
    for k in KEYS {
        let read = store.read(ParamKey(k)).map(|r| bits(r.as_slice()));
        prop_assert_eq!(
            read,
            model.values.get(&k).map(|v| bits(v)),
            "read of key {}",
            k
        );
    }
}

proptest! {
    #[test]
    fn flat_store_matches_ordered_map_model_bit_for_bit(
        partitions in 1u32..5,
        ops in proptest::collection::vec(
            (0u8..20, proptest::collection::vec((0usize..KEYS.len(), any::<u64>()), 1..6)),
            0..60,
        ),
    ) {
        let layout = PartitionMap::new(partitions).expect("nonzero");
        let mut store: ShardStore = ShardStore::new(layout);
        let mut model = Model { layout, values: BTreeMap::new(), dirty: BTreeMap::new() };
        let partition = |seed: u64| PartitionId((seed % u64::from(partitions)) as u32);

        for (op, args) in &ops {
            let (key_index, seed) = args[0];
            let k = KEYS[key_index];
            match op {
                0..=2 => {
                    // Mostly the key's own width; now and then another,
                    // which moves the row to a fresh range.
                    let dim = if seed % 5 == 0 { 1 + (seed % 17) as usize } else { dim_of(k) };
                    let value = row(dim, seed);
                    store.install(ParamKey(k), &value);
                    model.install(k, &value);
                }
                3..=7 => {
                    let batch: Vec<(ParamKey, Vec<f32>)> = args
                        .iter()
                        .map(|&(i, s)| (ParamKey(KEYS[i]), row(model.width(KEYS[i]), s)))
                        .collect();
                    store.apply_batch(&batch);
                    for (key, delta) in &batch {
                        model.apply(key.0, delta);
                    }
                }
                8..=10 => {
                    let delta = row(model.width(k), seed);
                    store.apply_update(ParamKey(k), &delta);
                    model.apply(k, &delta);
                }
                11 => {
                    let p = partition(seed);
                    prop_assert_eq!(image_bits(&store.export_partition(p)), model.export(p));
                }
                12 | 13 => {
                    // An image of partition `p` from elsewhere: the keys
                    // named, filtered to `p`, in key order.
                    let p = partition(seed);
                    let mut pairs: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
                    for &(i, s) in args {
                        if model.in_partition(KEYS[i], p) {
                            pairs.insert(KEYS[i], row(dim_of(KEYS[i]), s));
                        }
                    }
                    let image: Values = pairs.iter().map(|(k, v)| (ParamKey(*k), v)).collect();
                    store.import_partition(image);
                    for (k, v) in &pairs {
                        model.install(*k, v);
                    }
                }
                14 => {
                    let p = partition(seed);
                    prop_assert_eq!(store.drop_partition(p), model.drop_partition(p));
                }
                15..=17 => {
                    let p = partition(seed);
                    let taken = store.take_dirty_partition(p);
                    prop_assert_eq!(image_bits(&taken), model.take_dirty_partition(p));
                }
                _ => {
                    let taken: Image = (store.take_dirty().iter())
                        .map(|(k, v)| (k.0, bits(v.as_slice())))
                        .collect();
                    prop_assert_eq!(taken, model.dirty_bits());
                    model.dirty.clear();
                }
            }
            same_state(&store, &model);
        }
    }

    /// Strides below, equal to and above the partition count; runs that
    /// wrap round the partitions many times; runs of small keys, of far
    /// ones, and up to `u64::MAX`; rows 1 to 40 wide; a third of the
    /// keys never stored. The runs up to `u64::MAX` lie outside any
    /// app's key space: they are read, never stored, and read as absent.
    #[test]
    fn run_walked_reads_equal_per_key_reads(
        partitions in 1u32..7,
        runs in proptest::collection::vec((0u8..3, 0u64..40, 0u64..64, 1u64..24), 1..6),
        seed in any::<u64>(),
    ) {
        let count = u64::from(partitions);
        let layout = PartitionMap::new(partitions).expect("nonzero");
        let mut keys: BTreeSet<u64> = BTreeSet::new();
        for &(region, offset, stride, len) in &runs {
            let stride = 1 + stride % (3 * count + 3);
            let start = match region {
                0 => offset,
                // Slots from 4 096 up: a slot table with a long gap.
                1 => (1 << 12) * count + offset,
                _ => u64::MAX - len * stride - offset,
            };
            keys.extend((0..len).filter_map(|i| start.checked_add(i * stride)));
        }
        let mut store: ShardStore = ShardStore::new(layout);
        let mix = |k: u64| (k ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        for &k in keys.range(..u64::MAX / 2) {
            if mix(k) % 3 != 0 {
                store.install(ParamKey(k), row(1 + (mix(k) % 40) as usize, seed ^ k));
            }
        }
        let sorted: Vec<ParamKey> = keys.iter().copied().map(ParamKey).collect();
        let per_key: Image = (sorted.iter())
            .filter_map(|&k| store.read(k).map(|r| (k.0, bits(r.as_slice()))))
            .collect();
        let set = KeySet::from_sorted(&sorted);
        prop_assert_eq!(image_bits(&store.read_rows(&set)), per_key);
    }

    #[test]
    fn values_keep_push_order_wire_size_and_one_buffer(
        pairs in proptest::collection::vec((any::<u64>(), 0usize..18, any::<u64>()), 0..24),
    ) {
        let rows: Vec<(ParamKey, Vec<f32>)> =
            pairs.iter().map(|&(k, dim, s)| (ParamKey(k), row(dim, s))).collect();
        let mut pushed: Values = Values::new();
        for (k, v) in &rows {
            pushed.push((*k, v));
        }
        let collected: Values = rows.iter().map(|(k, v)| (*k, v)).collect();
        let expect: Image = rows.iter().map(|(k, v)| (k.0, bits(v))).collect();
        prop_assert_eq!(image_bits(&pushed), expect.clone());
        prop_assert_eq!(image_bits(&collected), expect);
        prop_assert_eq!(pushed.len(), rows.len());
        let per_pair: usize = rows.iter().map(|(_, v)| 4 * v.len() + 8).sum();
        prop_assert_eq!(pushed.wire_bytes(), per_pair);
        let clone = pushed.clone();
        prop_assert!(clone.iter().zip(pushed.iter()).all(|((_, a), (_, b))| std::ptr::eq(a, b)));
        prop_assert_eq!(clone.wire_bytes(), per_pair);
        let owned: Image = (clone.into_iter()).map(|(k, v)| (k.0, bits(v.as_slice()))).collect();
        prop_assert_eq!(owned, image_bits(&pushed));
    }
}
