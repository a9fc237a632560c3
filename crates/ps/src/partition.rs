//! Fixed-count key partitioning.
//!
//! AgileML divides the parameter state into `N` partitions at start-up,
//! where `N` is the maximum number of ActivePSs that can ever exist
//! (Sec. 3.3: half the maximum resource footprint works well). Elasticity
//! then re-assigns whole *partitions* between servers instead of
//! re-sharding keys, which is what makes bulk addition and eviction cheap.

/// A parameter key (e.g. a row index of the factor matrix `L`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamKey(pub u64);

/// A partition of the key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u32);

/// The immutable key→partition layout fixed at job start.
///
/// Keys map to partitions by modulo, which balances any key distribution
/// whose low bits vary (all bundled apps use dense integer key ranges).
///
/// # Examples
///
/// ```
/// use proteus_ps::{ParamKey, PartitionMap};
///
/// let map = PartitionMap::new(8).unwrap();
/// assert_eq!(map.partition_of(ParamKey(13)).0, 5);
/// assert_eq!(map.partitions().count(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    count: u32,
}

impl PartitionMap {
    /// Creates a layout with `count` partitions; `None` if `count` is 0.
    pub fn new(count: u32) -> Option<Self> {
        if count == 0 {
            None
        } else {
            Some(PartitionMap { count })
        }
    }

    /// Number of partitions.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The partition owning `key`.
    pub fn partition_of(&self, key: ParamKey) -> PartitionId {
        PartitionId((key.0 % u64::from(self.count)) as u32)
    }

    /// Iterates over every partition id.
    pub fn partitions(&self) -> impl Iterator<Item = PartitionId> {
        (0..self.count).map(PartitionId)
    }

    /// Splits the partition set as evenly as possible across `servers`
    /// slots, returning for each slot the list of partitions it owns.
    ///
    /// Returns `None` when `servers` is zero. Slot `i` receives partitions
    /// `{p : p ≡ i (mod servers)}` so that growing or shrinking the server
    /// count moves a minimal, predictable subset.
    pub fn assign_round_robin(&self, servers: u32) -> Option<Vec<Vec<PartitionId>>> {
        if servers == 0 {
            return None;
        }
        let mut out = vec![Vec::new(); servers as usize];
        for p in self.partitions() {
            out[(p.0 % servers) as usize].push(p);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_partitions_rejected() {
        assert!(PartitionMap::new(0).is_none());
    }

    #[test]
    fn round_robin_assignment_covers_all_partitions() {
        let map = PartitionMap::new(10).unwrap();
        let assign = map.assign_round_robin(3).unwrap();
        let mut seen: Vec<u32> = assign.iter().flatten().map(|p| p.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        // Balance: sizes differ by at most one.
        let sizes: Vec<usize> = assign.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn round_robin_with_zero_servers_is_none() {
        assert!(PartitionMap::new(4)
            .unwrap()
            .assign_round_robin(0)
            .is_none());
    }

    proptest! {
        #[test]
        fn every_key_maps_to_valid_partition(count in 1u32..64, key in any::<u64>()) {
            let map = PartitionMap::new(count).unwrap();
            let p = map.partition_of(ParamKey(key));
            prop_assert!(p.0 < count);
        }

        #[test]
        fn dense_keys_balance_across_partitions(count in 1u32..16) {
            let map = PartitionMap::new(count).unwrap();
            let mut loads = vec![0usize; count as usize];
            for k in 0..1000u64 {
                loads[map.partition_of(ParamKey(k)).0 as usize] += 1;
            }
            let max = *loads.iter().max().unwrap();
            let min = *loads.iter().min().unwrap();
            prop_assert!(max - min <= 1, "dense keys should balance: {loads:?}");
        }
    }
}
