//! Stale-Synchronous-Parallel (SSP) progress tracking.
//!
//! Parameter-server systems typically bound how stale the values a worker
//! reads may be: a worker at clock `c` may proceed only while the slowest
//! worker is at clock `c - slack` or later. AgileML's workers apply that
//! gate themselves against the minimum the controller broadcasts; this
//! table is where the controller keeps that minimum. The *consistent
//! state* used by AgileML's recovery (Sec. 3.3, footnote 6) corresponds to
//! the latest clock every worker has passed — it reflects all updates up
//! to that clock and none after.

use std::collections::BTreeMap;

/// Tracks per-worker clocks and derives the globally consistent clock.
///
/// Workers are identified by opaque `u32` ids (AgileML maps its worker
/// threads onto them).
///
/// # Examples
///
/// ```
/// use proteus_ps::ClockTable;
///
/// let mut clocks = ClockTable::default();
/// clocks.register_at(0, 0);
/// clocks.register_at(1, 0);
/// clocks.advance(0, 2);
/// // Worker 1 has completed nothing, so nothing is consistent past 0.
/// assert_eq!(clocks.min_clock(), Some(0));
/// clocks.advance(1, 1);
/// assert_eq!(clocks.min_clock(), Some(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClockTable {
    clocks: BTreeMap<u32, u64>,
}

impl ClockTable {
    /// Registers a worker starting at `clock` (0 for a fresh job).
    ///
    /// Controllers re-adding workers after an eviction or rescale seed
    /// them with the last broadcast minimum so the consistent clock (and
    /// with it the recovery rollback target) never regresses: a
    /// newcomer registered at 0 would drag it back to zero. If the
    /// worker is already registered its clock only moves forward.
    pub fn register_at(&mut self, worker: u32, clock: u64) {
        let entry = self.clocks.entry(worker).or_insert(clock);
        if clock > *entry {
            *entry = clock;
        }
    }

    /// Removes a worker (evicted or reassigned); its clock no longer
    /// holds others back.
    pub fn deregister(&mut self, worker: u32) {
        self.clocks.remove(&worker);
    }

    /// Sets `worker`'s clock to `clock` (clocks never move backwards; a
    /// smaller value is ignored).
    ///
    /// Reports from workers that are not registered are ignored — an
    /// evicted worker's in-flight clock report must not resurrect it.
    pub fn advance(&mut self, worker: u32, clock: u64) {
        if let Some(entry) = self.clocks.get_mut(&worker) {
            if clock > *entry {
                *entry = clock;
            }
        }
    }

    /// The slowest registered clock — the latest clock all workers have
    /// completed, the consistent snapshot point recovery rolls back to.
    /// `None` with no workers.
    pub fn min_clock(&self) -> Option<u64> {
        self.clocks.values().copied().min()
    }

    /// Number of registered workers.
    pub fn worker_count(&self) -> usize {
        self.clocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bsp_blocks_until_all_advance() {
        let mut t = ClockTable::default();
        t.register_at(0, 0);
        t.register_at(1, 0);
        assert_eq!(t.min_clock(), Some(0));
        t.advance(0, 1);
        // Worker 0 at clock 1 still waits on worker 1 (at 0).
        assert_eq!(t.min_clock(), Some(0));
        t.advance(1, 1);
        assert_eq!(t.min_clock(), Some(1));
    }

    #[test]
    fn clocks_never_move_backwards() {
        let mut t = ClockTable::default();
        t.register_at(0, 0);
        t.advance(0, 5);
        t.advance(0, 3);
        assert_eq!(t.clocks.get(&0).copied(), Some(5));
    }

    #[test]
    fn deregister_unblocks_stragglers_waiters() {
        let mut t = ClockTable::default();
        t.register_at(0, 0);
        t.register_at(1, 0);
        t.advance(0, 4);
        assert_eq!(t.min_clock(), Some(0));
        // Worker 1 is evicted; worker 0 no longer waits on it.
        t.deregister(1);
        assert_eq!(t.min_clock(), Some(4));
    }

    #[test]
    fn register_at_does_not_regress_consistent_clock() {
        let mut t = ClockTable::default();
        t.register_at(0, 0);
        t.register_at(1, 0);
        t.advance(0, 7);
        t.advance(1, 7);
        t.deregister(1); // evicted
        assert_eq!(t.min_clock(), Some(7));
        // `register` would pin the rejoiner at 0 and drag the rollback
        // target back to the start of the job:
        let mut naive = t.clone();
        naive.register_at(2, 0);
        assert_eq!(naive.min_clock(), Some(0));
        // `register_at` seeds it with the current consistent clock:
        t.register_at(2, 7);
        assert_eq!(t.min_clock(), Some(7));
        // Re-registering an existing worker never moves it backwards.
        t.register_at(0, 3);
        assert_eq!(t.clocks.get(&0).copied(), Some(7));
        t.register_at(0, 9);
        assert_eq!(t.clocks.get(&0).copied(), Some(9));
    }

    #[test]
    fn empty_table_never_blocks() {
        let t = ClockTable::default();
        assert_eq!(t.min_clock(), None);
        assert_eq!(t.worker_count(), 0);
    }

    proptest! {
        #[test]
        fn consistent_clock_is_min(clocks in proptest::collection::vec(0u64..50, 1..8)) {
            let mut t = ClockTable::default();
            for (i, c) in clocks.iter().enumerate() {
                t.register_at(i as u32, 0);
                t.advance(i as u32, *c);
            }
            prop_assert_eq!(t.min_clock(), clocks.iter().copied().min());
            prop_assert_eq!(t.worker_count(), clocks.len());
        }
    }
}
