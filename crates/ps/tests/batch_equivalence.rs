//! Property: the batched data plane is *bit-identical* to the per-key
//! path. Any update sequence, split into arbitrary batches and applied
//! via [`ShardStore::apply_batch`], must leave exactly the state (values
//! AND dirty aggregates) that applying each `(key, delta)` through
//! [`ShardStore::apply_update`] leaves — regardless of how the sequence
//! is interleaved across batch boundaries or partitions.
//!
//! This is the invariant that lets the PS switch workers to batched
//! messages without perturbing convergence tests, rollback deltas, or
//! the obs determinism suite.

use proptest::prelude::*;
use proteus_ps::{DenseVec, KeySet, ParamKey, PartitionId, PartitionMap, ShardStore};

/// An update op: `(key, scalar seed)` expanded to a dim-4 delta.
fn delta(seed: f32) -> DenseVec {
    DenseVec::from(vec![seed, seed * 0.5, -seed, seed + 1.0])
}

fn store(partitions: u32) -> ShardStore<DenseVec> {
    let layout = PartitionMap::new(partitions).expect("nonzero partitions");
    ShardStore::new(layout)
}

/// Splits `ops` into chunks whose sizes cycle through `splits`.
fn chunked(ops: &[(u64, f32)], splits: &[usize]) -> Vec<Vec<(ParamKey, DenseVec)>> {
    let mut chunks = Vec::new();
    let mut i = 0;
    let mut s = 0;
    while i < ops.len() {
        let take = if splits.is_empty() {
            ops.len()
        } else {
            splits[s % splits.len()].max(1)
        };
        s += 1;
        let end = (i + take).min(ops.len());
        chunks.push(
            ops[i..end]
                .iter()
                .map(|&(k, x)| (ParamKey(k), delta(x)))
                .collect(),
        );
        i = end;
    }
    chunks
}

/// Full observable state of a store: per-partition sorted images plus
/// the coalesced dirty aggregate.
#[allow(clippy::type_complexity)]
fn observe(
    store: &mut ShardStore<DenseVec>,
    partitions: u32,
) -> (Vec<Vec<(ParamKey, DenseVec)>>, Vec<(ParamKey, DenseVec)>) {
    let images = (0..partitions)
        .map(|p| store.export_partition(PartitionId(p)).into_iter().collect())
        .collect();
    (images, store.take_dirty())
}

proptest! {
    #[test]
    fn batched_equals_per_key_under_any_interleaving(
        partitions in 1u32..6,
        ops in proptest::collection::vec((0u64..64, -100.0f32..100.0), 0..120),
        splits in proptest::collection::vec(1usize..9, 0..20),
    ) {
        // Per-key reference: one apply_update per op, in order.
        let mut per_key = store(partitions);
        for &(k, x) in &ops {
            per_key.apply_update(ParamKey(k), &delta(x));
        }

        // Batched path: the same ops, sliced into arbitrary batches.
        let mut batched = store(partitions);
        for chunk in chunked(&ops, &splits) {
            batched.apply_batch(&chunk);
        }

        let (img_a, dirty_a) = observe(&mut per_key, partitions);
        let (img_b, dirty_b) = observe(&mut batched, partitions);
        prop_assert_eq!(img_a, img_b);
        prop_assert_eq!(dirty_a, dirty_b);
    }

    #[test]
    fn per_partition_dirty_drain_equals_global_drain(
        partitions in 1u32..6,
        ops in proptest::collection::vec((0u64..64, -100.0f32..100.0), 0..120),
    ) {
        let mut a = store(partitions);
        let mut b = store(partitions);
        for &(k, x) in &ops {
            a.apply_update(ParamKey(k), &delta(x));
            b.apply_update(ParamKey(k), &delta(x));
        }
        // Global drain (sorted by key) vs per-partition drains stitched
        // back together in key order.
        let global = a.take_dirty();
        let mut stitched: Vec<(ParamKey, DenseVec)> = Vec::new();
        for p in b.dirty_partitions() {
            stitched.extend(b.take_dirty_partition(p));
        }
        stitched.sort_by_key(|(k, _)| *k);
        prop_assert_eq!(global, stitched);
        prop_assert!(!b.has_dirty());
    }

    #[test]
    fn keyset_read_plan_equals_per_key_reads(
        partitions in 1u32..6,
        installs in proptest::collection::vec((0u64..64, -100.0f32..100.0), 0..80),
        queried in proptest::collection::vec(0u64..96, 0..80),
    ) {
        let mut s = store(partitions);
        for &(k, x) in &installs {
            s.install(ParamKey(k), delta(x));
        }
        let mut keys: Vec<ParamKey> = queried.into_iter().map(ParamKey).collect();
        keys.sort_unstable();
        keys.dedup();

        let owned = |k: ParamKey, v: &[f32]| (k, DenseVec::from(v.to_vec()));
        // Per-key reference read (misses omitted).
        let direct: Vec<(ParamKey, DenseVec)> = keys
            .iter()
            .filter_map(|&k| s.read(k).map(|v| owned(k, v.as_slice())))
            .collect();
        // Batched read: the compressed KeySet drives the same lookups.
        let set = KeySet::from_sorted(&keys);
        let via_set: Vec<(ParamKey, DenseVec)> = set
            .iter()
            .filter_map(|k| s.read(k).map(|v| owned(k, v.as_slice())))
            .collect();
        prop_assert_eq!(&direct, &via_set);
        // The one-pass reply a server ships carries the same pairs.
        let reply = s.read_rows(&set);
        let via_reply: Vec<(ParamKey, DenseVec)> = reply.iter().map(|(k, v)| owned(k, v)).collect();
        prop_assert_eq!(&direct, &via_reply);
        // Logical wire accounting matches the per-key request exactly.
        prop_assert_eq!(set.wire_bytes(), keys.len() * 8);
        let value_bytes: usize = direct.iter().map(|(_, v)| v.wire_bytes() + 8).sum();
        let per_key_bytes: usize = via_set.iter().map(|(_, v)| v.wire_bytes() + 8).sum();
        prop_assert_eq!(value_bytes, per_key_bytes);
        prop_assert_eq!(reply.wire_bytes(), value_bytes);
    }
}
