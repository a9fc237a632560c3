//! Compressed sorted key sets for batched read requests.
//!
//! A worker's per-owner read set is the union of a few partitions'
//! keys, and partitions are arithmetic progressions (`key % count`
//! layout), so the sorted union almost always collapses into a handful
//! of strided runs — `(start, stride, count)` triples — instead of one
//! `ParamKey` per entry. A [`KeySet`] stores exactly those runs, built
//! greedily from a sorted key list, turning an O(keys) message payload
//! into an O(runs) one while iterating back the identical key sequence.
//! The server answering a read walks the runs themselves
//! (`ShardStore::read_rows`): a run's keys step through the partitions
//! by a fixed amount, so locating each row costs no division.
//!
//! Wire accounting is **logical**: a `KeySet` reports the bytes the
//! equivalent per-key list would ship (`len × 8`), so switching the
//! read path to ranged requests cannot shift network-volume counters.

use std::sync::Arc;

use crate::partition::ParamKey;

/// One arithmetic run of keys: `start, start+stride, …` (`count` keys,
/// one or more; a run of one has stride 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyRun {
    pub(crate) start: u64,
    pub(crate) stride: u64,
    pub(crate) count: u64,
}

impl KeyRun {
    /// The last key in the run.
    fn last(&self) -> u64 {
        self.start + self.stride * (self.count - 1)
    }
}

/// A compressed, strictly increasing set of parameter keys.
///
/// # Examples
///
/// ```
/// use proteus_ps::{KeySet, ParamKey};
///
/// // Keys ≡ 1 (mod 4): one strided run, regardless of how many keys.
/// let keys: Vec<ParamKey> = (0..100).map(|i| ParamKey(1 + 4 * i)).collect();
/// let set = KeySet::from_sorted(&keys);
/// assert_eq!(set.len(), 100);
/// assert_eq!(set.run_count(), 1);
/// assert!(set.iter().eq(keys.iter().copied()));
/// assert_eq!(set.wire_bytes(), 100 * 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeySet {
    /// Shared, so a read round sent again clones a reference, not runs.
    runs: Arc<[KeyRun]>,
    len: usize,
}

impl KeySet {
    /// Compresses a sorted, duplicate-free key list into strided runs.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is not strictly increasing — callers sort and
    /// dedup before grouping keys by owner, so an unsorted list here is
    /// a protocol bug, not an input condition.
    pub fn from_sorted(keys: &[ParamKey]) -> Self {
        keys.iter().copied().collect()
    }

    /// Number of keys in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of compressed runs (diagnostics; `run_count ≪ len` is the
    /// point of the representation).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The runs, in increasing key order: what a batched read walks.
    pub(crate) fn runs(&self) -> &[KeyRun] {
        &self.runs
    }

    /// Iterates the keys in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = ParamKey> + '_ {
        self.runs
            .iter()
            .flat_map(|run| (0..run.count).map(move |i| ParamKey(run.start + run.stride * i)))
    }

    /// Logical wire size: the bytes of the *equivalent per-key list*
    /// (8 bytes per key), independent of how well the runs compress.
    /// Keeps network-volume accounting identical between the batched
    /// and per-key read paths.
    pub fn wire_bytes(&self) -> usize {
        self.len * std::mem::size_of::<u64>()
    }
}

impl From<&[ParamKey]> for KeySet {
    fn from(keys: &[ParamKey]) -> Self {
        KeySet::from_sorted(keys)
    }
}

impl FromIterator<ParamKey> for KeySet {
    /// Collects from an iterator that must already yield sorted,
    /// duplicate-free keys (see [`KeySet::from_sorted`]), extending the
    /// last run or starting a new one per key: no key list is kept.
    fn from_iter<I: IntoIterator<Item = ParamKey>>(iter: I) -> Self {
        let mut runs: Vec<KeyRun> = Vec::new();
        let mut len = 0;
        for ParamKey(k) in iter {
            len += 1;
            match runs.last_mut() {
                Some(run) if run.count == 1 => {
                    assert!(k > run.start, "KeySet::from_sorted requires sorted keys");
                    run.stride = k - run.start;
                    run.count = 2;
                }
                Some(run) if k > run.last() && k - run.last() == run.stride => run.count += 1,
                Some(run) => {
                    assert!(k > run.last(), "KeySet::from_sorted requires sorted keys");
                    runs.push(KeyRun {
                        start: k,
                        stride: 0,
                        count: 1,
                    });
                }
                None => runs.push(KeyRun {
                    start: k,
                    stride: 0,
                    count: 1,
                }),
            }
        }
        KeySet {
            runs: runs.into(),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keys(xs: &[u64]) -> Vec<ParamKey> {
        xs.iter().copied().map(ParamKey).collect()
    }

    #[test]
    fn empty_set_is_empty() {
        let s = KeySet::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.run_count(), 0);
        assert_eq!(s.wire_bytes(), 0);
        assert!(s.iter().next().is_none());
    }

    #[test]
    fn arithmetic_progression_collapses_to_one_run() {
        let ks = keys(&[3, 7, 11, 15, 19]);
        let s = KeySet::from_sorted(&ks);
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), ks);
    }

    #[test]
    fn union_of_two_partitions_stays_compact() {
        // Partitions 1 and 3 of an 8-way layout: keys ≡ 1 or 3 (mod 8).
        let mut ks: Vec<u64> = Vec::new();
        for base in 0..50u64 {
            ks.push(base * 8 + 1);
            ks.push(base * 8 + 3);
        }
        ks.sort_unstable();
        let ks = keys(&ks);
        let s = KeySet::from_sorted(&ks);
        // Alternating gaps 2,6,2,6… never collapse to one run, but the
        // run count must stay far below the key count.
        assert!(
            s.run_count() <= ks.len() / 2 + 1,
            "expected compression, got {} runs for {} keys",
            s.run_count(),
            ks.len()
        );
        assert_eq!(s.iter().collect::<Vec<_>>(), ks);
    }

    #[test]
    fn singletons_and_irregular_gaps_round_trip() {
        let ks = keys(&[0, 1, 5, 6, 7, 100]);
        let s = KeySet::from_sorted(&ks);
        assert_eq!(s.iter().collect::<Vec<_>>(), ks);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn wire_bytes_is_per_key_regardless_of_compression() {
        let compact = KeySet::from_sorted(&keys(&[0, 4, 8, 12]));
        let ragged = KeySet::from_sorted(&keys(&[0, 1, 9, 12]));
        assert_eq!(compact.wire_bytes(), 32);
        assert_eq!(ragged.wire_bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "sorted keys")]
    fn unsorted_input_is_rejected() {
        let _ = KeySet::from_sorted(&keys(&[5, 3]));
    }

    proptest! {
        #[test]
        fn round_trips_any_sorted_key_list(
            raw in proptest::collection::vec(0u64..10_000, 0..200)
        ) {
            let mut raw = raw;
            raw.sort_unstable();
            raw.dedup();
            let ks: Vec<ParamKey> = raw.into_iter().map(ParamKey).collect();
            let s = KeySet::from_sorted(&ks);
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), ks.clone());
            prop_assert_eq!(s.len(), ks.len());
            prop_assert_eq!(s.wire_bytes(), ks.len() * 8);
        }

        #[test]
        fn strided_unions_compress_well(
            nparts in 2u64..16,
            owned_raw in proptest::collection::vec(0u64..16, 1..4),
            rows in 10u64..200
        ) {
            let mut owned = owned_raw;
            owned.sort_unstable();
            owned.dedup();
            // Keys of a few partitions under modulo layout.
            let mut ks: Vec<u64> = Vec::new();
            for slot in 0..rows {
                for &p in owned.iter().filter(|&&p| p < nparts) {
                    ks.push(slot * nparts + p);
                }
            }
            ks.sort_unstable();
            ks.dedup();
            // `owned` may fall entirely outside `0..nparts`; an empty key
            // list is a valid (trivial) case.
            if !ks.is_empty() {
                let parsed: Vec<ParamKey> = ks.iter().copied().map(ParamKey).collect();
                let s = KeySet::from_sorted(&parsed);
                prop_assert_eq!(s.iter().collect::<Vec<_>>(), parsed.clone());
                // Periodic pattern: at most one run per (partition, period
                // boundary) pair, far below the key count for long lists.
                prop_assert!(s.run_count() <= 2 * owned.len() + 2 || s.run_count() < parsed.len());
            }
        }
    }
}
