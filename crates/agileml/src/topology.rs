//! Cluster topology: partition ownership, backup placement, worker set,
//! and input-data block assignment.

use std::collections::{BTreeMap, BTreeSet};

use proteus_ps::PartitionId;
use proteus_simnet::NodeId;

use crate::stage::Stage;

/// A block of input data (the unit of worker data assignment).
///
/// The dataset is split into a fixed number of blocks at job start;
/// elasticity moves whole blocks between workers, and an evicted worker's
/// blocks fall back to their previous owner, who has already seen the
/// data (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A versioned snapshot of who-serves-what, broadcast by the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Monotonic version; receivers ignore stale snapshots.
    pub version: u64,
    /// Current stage.
    pub stage: Stage,
    /// Serving owner of each partition (indexed by `PartitionId.0`):
    /// a reliable `ParamServ` in stage 1, an `ActivePS` in stages 2–3.
    pub partition_owner: Vec<NodeId>,
    /// Backup owner of each partition in stages 2–3 (`None` in stage 1).
    pub backup_owner: Vec<Option<NodeId>>,
    /// Nodes currently running workers.
    pub workers: Vec<NodeId>,
}

impl Topology {
    /// The serving owner of `partition`.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range for this job — topologies
    /// always cover all `N` fixed partitions.
    pub fn owner_of(&self, partition: PartitionId) -> NodeId {
        self.partition_owner[partition.0 as usize]
    }

    /// The backup owner of `partition`, if the stage uses backups.
    pub fn backup_of(&self, partition: PartitionId) -> Option<NodeId> {
        self.backup_owner[partition.0 as usize]
    }
}

/// Tracks block→worker assignment with previous-owner history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataAssignment {
    /// Ownership history per block: last element is the current owner;
    /// earlier elements are previous owners (most recent last).
    history: BTreeMap<BlockId, Vec<NodeId>>,
}

impl DataAssignment {
    /// Creates an assignment of `blocks` blocks, initially distributed
    /// round-robin over `workers`.
    ///
    /// Returns `None` if `workers` is empty.
    pub fn new(blocks: u32, workers: &[NodeId]) -> Option<Self> {
        if workers.is_empty() {
            return None;
        }
        let mut history = BTreeMap::new();
        for b in 0..blocks {
            let owner = workers[(b as usize) % workers.len()];
            history.insert(BlockId(b), vec![owner]);
        }
        Some(DataAssignment { history })
    }

    /// Blocks currently owned by `worker`, sorted.
    pub fn blocks_of(&self, worker: NodeId) -> Vec<BlockId> {
        self.history
            .iter()
            .filter(|(_, h)| h.last() == Some(&worker))
            .map(|(b, _)| *b)
            .collect()
    }

    /// Rebalances blocks across `workers` so loads differ by at most one,
    /// moving as few blocks as possible. Returns the moved blocks as
    /// `(block, from, to)`.
    ///
    /// Returns `None` (and changes nothing) if `workers` is empty.
    pub fn rebalance(
        &mut self,
        workers: &[NodeId],
    ) -> Option<Vec<(BlockId, Option<NodeId>, NodeId)>> {
        if workers.is_empty() {
            return None;
        }
        let worker_set: BTreeSet<NodeId> = workers.iter().copied().collect();
        let total = self.history.len();
        let base = total / workers.len();
        let extra = total % workers.len();
        // Target load per worker: `base + 1` for the first `extra`
        // workers (in sorted order), `base` for the rest.
        let mut target: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (i, w) in worker_set.iter().enumerate() {
            target.insert(*w, base + usize::from(i < extra));
        }

        // Current loads (counting only blocks owned by valid workers).
        let mut load: BTreeMap<NodeId, usize> = worker_set.iter().map(|w| (*w, 0)).collect();
        let mut orphans: Vec<BlockId> = Vec::new();
        for (b, h) in &self.history {
            match h.last() {
                Some(owner) if worker_set.contains(owner) => {
                    // `owner` was just checked to be in `worker_set`,
                    // and `load` was built from exactly that set.
                    #[allow(clippy::expect_used)]
                    {
                        *load.get_mut(owner).expect("owner in set") += 1;
                    }
                }
                _ => orphans.push(*b),
            }
        }

        let mut moves: Vec<(BlockId, Option<NodeId>, NodeId)> = Vec::new();
        // Collect blocks to shed from overloaded workers, preferring the
        // highest-numbered blocks for determinism.
        let mut pool: Vec<(BlockId, Option<NodeId>)> =
            orphans.into_iter().map(|b| (b, None)).collect();
        for (w, cnt) in load.clone() {
            let t = target[&w];
            if cnt > t {
                let mut owned = self.blocks_of(w);
                owned.reverse();
                for b in owned.into_iter().take(cnt - t) {
                    pool.push((b, Some(w)));
                }
            }
        }
        pool.sort_by_key(|(b, _)| *b);
        // Hand the pool to underloaded workers.
        for w in worker_set.iter() {
            let have = load[w];
            let want = target[w];
            if want > have {
                for _ in 0..(want - have) {
                    let (b, from) = match pool.pop() {
                        Some(x) => x,
                        None => break,
                    };
                    // `pool` holds blocks drawn from `self.history` keys.
                    #[allow(clippy::expect_used)]
                    self.history.get_mut(&b).expect("block exists").push(*w);
                    moves.push((b, from, *w));
                }
            }
        }
        debug_assert!(pool.is_empty(), "rebalance pool fully drained");
        Some(moves)
    }

    /// Removes a worker: each of its blocks returns to its most recent
    /// previous owner still in `survivors`, or to the least-loaded
    /// survivor when no previous owner survives. Returns the moves.
    ///
    /// Returns `None` (and changes nothing) if `survivors` is empty.
    pub fn remove_worker(
        &mut self,
        worker: NodeId,
        survivors: &[NodeId],
    ) -> Option<Vec<(BlockId, NodeId)>> {
        if survivors.is_empty() {
            return None;
        }
        let survivor_set: BTreeSet<NodeId> = survivors.iter().copied().collect();
        let mut moves = Vec::new();
        let blocks = self.blocks_of(worker);
        for b in blocks {
            // `blocks_of` yields keys of `self.history`.
            #[allow(clippy::expect_used)]
            let h = self.history.get_mut(&b).expect("block exists");
            // Pop the evicted owner, then fall back through history.
            while h.last() == Some(&worker) {
                h.pop();
            }
            let fallback = h.iter().rev().find(|n| survivor_set.contains(n)).copied();
            let new_owner = match fallback {
                Some(n) => n,
                None => {
                    // No surviving previous owner: least-loaded survivor.
                    // Callers never evict the last node; `survivors` is
                    // non-empty by the membership invariant.
                    #[allow(clippy::expect_used)]
                    {
                        *survivor_set
                            .iter()
                            .min_by_key(|w| self.count_owned(**w))
                            .expect("non-empty survivors")
                    }
                }
            };
            // Same key as above: `blocks_of` yields keys of `self.history`.
            #[allow(clippy::expect_used)]
            let h = self.history.get_mut(&b).expect("block exists");
            if h.last() != Some(&new_owner) {
                h.push(new_owner);
            }
            moves.push((b, new_owner));
        }
        Some(moves)
    }

    fn count_owned(&self, worker: NodeId) -> usize {
        self.history
            .values()
            .filter(|h| h.last() == Some(&worker))
            .count()
    }
}

/// Splits `total` data items into `blocks` nearly equal index ranges;
/// block `b` covers `ranges[b].0 .. ranges[b].1`.
pub fn block_ranges(total: usize, blocks: u32) -> Vec<(usize, usize)> {
    let blocks = blocks.max(1) as usize;
    let base = total / blocks;
    let extra = total % blocks;
    let mut out = Vec::with_capacity(blocks);
    let mut start = 0;
    for b in 0..blocks {
        let len = base + usize::from(b < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The block's current owner: the last entry of its history.
    fn current_owner(a: &DataAssignment, block: BlockId) -> Option<NodeId> {
        a.history.get(&block).and_then(|h| h.last().copied())
    }

    #[test]
    fn initial_assignment_is_balanced() {
        let a = DataAssignment::new(10, &[n(1), n(2), n(3)]).unwrap();
        let loads: Vec<usize> = [1, 2, 3].iter().map(|i| a.blocks_of(n(*i)).len()).collect();
        assert_eq!(loads.iter().sum::<usize>(), 10);
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1);
        assert!(DataAssignment::new(4, &[]).is_none());
    }

    #[test]
    fn rebalance_adds_new_worker_with_min_moves() {
        let mut a = DataAssignment::new(8, &[n(1), n(2)]).unwrap();
        let moves = a.rebalance(&[n(1), n(2), n(3)]).unwrap();
        // New worker should end with ceil/floor share.
        let l3 = a.blocks_of(n(3)).len();
        assert!(l3 == 2 || l3 == 3, "new worker got {l3}");
        // Only blocks that moved to n(3) are reported.
        assert_eq!(moves.len(), l3);
        assert!(moves.iter().all(|(_, _, to)| *to == n(3)));
        // Every block still has exactly one owner among the three.
        for b in 0..8 {
            assert!(current_owner(&a, BlockId(b)).is_some());
        }
    }

    #[test]
    fn eviction_returns_blocks_to_previous_owner() {
        let mut a = DataAssignment::new(4, &[n(1), n(2)]).unwrap();
        // Add worker 3; it takes some blocks from 1 and/or 2.
        a.rebalance(&[n(1), n(2), n(3)]).unwrap();
        let taken = a.blocks_of(n(3));
        assert!(!taken.is_empty());
        // Evict worker 3: each block must return to a previous owner
        // (worker 1 or 2), exercising the Fig. 5 fallback.
        let moves = a.remove_worker(n(3), &[n(1), n(2)]).unwrap();
        assert_eq!(moves.len(), taken.len());
        for (b, new_owner) in moves {
            assert!(new_owner == n(1) || new_owner == n(2));
            assert_eq!(current_owner(&a, b), Some(new_owner));
        }
        assert!(a.blocks_of(n(3)).is_empty());
    }

    #[test]
    fn remove_worker_without_survivors_is_none() {
        let mut a = DataAssignment::new(4, &[n(1)]).unwrap();
        assert!(a.remove_worker(n(1), &[]).is_none());
        // Unchanged.
        assert_eq!(a.blocks_of(n(1)).len(), 4);
    }

    #[test]
    fn block_ranges_partition_exactly() {
        let r = block_ranges(10, 3);
        assert_eq!(r, vec![(0, 4), (4, 7), (7, 10)]);
        let r = block_ranges(2, 4);
        assert_eq!(r.iter().map(|(a, b)| b - a).sum::<usize>(), 2);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn topology_lookups() {
        let topo = Topology {
            version: 1,
            stage: Stage::Stage2,
            partition_owner: vec![n(5), n(6), n(5)],
            backup_owner: vec![Some(n(0)), Some(n(0)), Some(n(1))],
            workers: vec![n(5), n(6)],
        };
        assert_eq!(topo.owner_of(PartitionId(1)), n(6));
        assert_eq!(topo.backup_of(PartitionId(2)), Some(n(1)));
    }

    proptest! {
        #[test]
        fn rebalance_always_balances(
            blocks in 1u32..40,
            initial in 1usize..5,
            later in 1usize..8,
        ) {
            let initial_workers: Vec<NodeId> = (0..initial as u32).map(n).collect();
            let later_workers: Vec<NodeId> = (0..later as u32).map(n).collect();
            let mut a = DataAssignment::new(blocks, &initial_workers).unwrap();
            a.rebalance(&later_workers).unwrap();
            let loads: Vec<usize> = later_workers.iter().map(|w| a.blocks_of(*w).len()).collect();
            prop_assert_eq!(loads.iter().sum::<usize>(), blocks as usize);
            prop_assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1);
            // Blocks owned by retired workers are all reassigned.
            for b in 0..blocks {
                let owner = current_owner(&a, BlockId(b)).unwrap();
                prop_assert!(later_workers.contains(&owner));
            }
        }

        #[test]
        fn every_block_always_owned_after_evictions(
            blocks in 1u32..20,
            evict_order in proptest::sample::subsequence(vec![0u32,1,2,3], 0..4),
        ) {
            let workers: Vec<NodeId> = (0..5u32).map(n).collect();
            let mut a = DataAssignment::new(blocks, &workers).unwrap();
            let mut alive: Vec<NodeId> = workers.clone();
            for e in evict_order {
                let victim = n(e);
                alive.retain(|w| *w != victim);
                a.remove_worker(victim, &alive).unwrap();
                for b in 0..blocks {
                    let owner = current_owner(&a, BlockId(b)).unwrap();
                    prop_assert!(alive.contains(&owner));
                }
            }
        }
    }
}
