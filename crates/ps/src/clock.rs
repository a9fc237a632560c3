//! Stale-Synchronous-Parallel (SSP) progress tracking.
//!
//! Parameter-server systems typically bound how stale the values a worker
//! reads may be: a worker at clock `c` may proceed only while the slowest
//! worker is at clock `c - slack` or later. The *consistent state* used by
//! AgileML's recovery (Sec. 3.3, footnote 6) corresponds to the latest
//! clock every worker has passed — it reflects all updates up to that
//! clock and none after.

use std::collections::BTreeMap;

/// Tracks per-worker clocks and derives SSP admission and the globally
/// consistent clock.
///
/// Workers are identified by opaque `u32` ids (AgileML maps its worker
/// threads onto them).
///
/// # Examples
///
/// ```
/// use proteus_ps::ClockTable;
///
/// let mut clocks = ClockTable::new(1); // slack of 1 clock
/// clocks.register_at(0, 0);
/// clocks.register_at(1, 0);
/// clocks.advance(0, 2);
/// // Worker 0 at clock 2 may not start clock 3 while worker 1 is at 0.
/// assert!(!clocks.may_proceed(2));
/// assert_eq!(clocks.min_clock(), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockTable {
    slack: u64,
    clocks: BTreeMap<u32, u64>,
}

impl ClockTable {
    /// Creates a table with the given staleness bound (0 = BSP).
    pub fn new(slack: u64) -> Self {
        ClockTable {
            slack,
            clocks: BTreeMap::new(),
        }
    }

    /// The staleness bound.
    pub fn slack(&self) -> u64 {
        self.slack
    }

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

    /// Whether a worker currently *at* `clock` may begin `clock + 1`
    /// under the staleness bound.
    ///
    /// With no registered workers this returns true (nothing to wait on).
    pub fn may_proceed(&self, clock: u64) -> bool {
        match self.min_clock() {
            Some(min) => clock.saturating_sub(min) <= self.slack,
            None => true,
        }
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
        let mut t = ClockTable::new(0);
        t.register_at(0, 0);
        t.register_at(1, 0);
        assert!(t.may_proceed(0));
        t.advance(0, 1);
        // Worker 0 at clock 1 must wait for worker 1 (still at 0).
        assert!(!t.may_proceed(1));
        t.advance(1, 1);
        assert!(t.may_proceed(1));
    }

    #[test]
    fn slack_allows_bounded_lead() {
        let mut t = ClockTable::new(2);
        t.register_at(0, 0);
        t.register_at(1, 0);
        t.advance(0, 2);
        assert!(t.may_proceed(2)); // Lead of 2 ≤ slack.
        t.advance(0, 3);
        assert!(!t.may_proceed(3)); // Lead of 3 > slack.
    }

    #[test]
    fn clocks_never_move_backwards() {
        let mut t = ClockTable::new(0);
        t.register_at(0, 0);
        t.advance(0, 5);
        t.advance(0, 3);
        assert_eq!(t.clocks.get(&0).copied(), Some(5));
    }

    #[test]
    fn deregister_unblocks_stragglers_waiters() {
        let mut t = ClockTable::new(0);
        t.register_at(0, 0);
        t.register_at(1, 0);
        t.advance(0, 4);
        assert!(!t.may_proceed(4));
        // Worker 1 is evicted; worker 0 may proceed.
        t.deregister(1);
        assert!(t.may_proceed(4));
        assert_eq!(t.min_clock(), Some(4));
    }

    #[test]
    fn register_at_does_not_regress_consistent_clock() {
        let mut t = ClockTable::new(1);
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
        let t = ClockTable::new(0);
        assert!(t.may_proceed(100));
        assert_eq!(t.min_clock(), None);
        assert_eq!(t.min_clock(), None);
    }

    proptest! {
        #[test]
        fn consistent_clock_is_min(clocks in proptest::collection::vec(0u64..50, 1..8)) {
            let mut t = ClockTable::new(1);
            for (i, c) in clocks.iter().enumerate() {
                t.register_at(i as u32, 0);
                t.advance(i as u32, *c);
            }
            prop_assert_eq!(t.min_clock(), clocks.iter().copied().min());
            prop_assert_eq!(t.worker_count(), clocks.len());
        }

        #[test]
        fn may_proceed_monotone_in_slack(lead in 0u64..10) {
            let mut lo = ClockTable::new(1);
            let mut hi = ClockTable::new(5);
            for t in [&mut lo, &mut hi] {
                t.register_at(0, 0);
                t.register_at(1, 0);
                t.advance(0, lead);
            }
            // Anything admitted under the tight bound is admitted under
            // the loose one.
            if lo.may_proceed(lead) {
                prop_assert!(hi.may_proceed(lead));
            }
        }
    }
}
