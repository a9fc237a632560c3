//! Fairness policy: weighted fair queuing with aging.
//!
//! Pending gangs are ranked by *value* = fairness weight × marginal
//! cost-per-work advantage (Eq. 4 across jobs). The weight starts from
//! the job's priority tier and grows with every scheduling round the
//! job spends waiting, so a low tier is cheap to delay but impossible
//! to starve: past `MAX_WAIT_ROUNDS` (16) the job is
//! *starved* and jumps to the front of the launch walk regardless of
//! value, with preemption rights over any preemptible gang.

/// Weight ratio between adjacent tiers: tier `t` has base weight
/// `TIER_BASE^-t`.
const TIER_BASE: f64 = 2.0;

/// Fractional weight gained per round spent waiting — the aging term
/// `1 + AGING_BOOST × rounds`.
const AGING_BOOST: f64 = 0.25;

/// Rounds after which a waiting job is declared starved and served
/// ahead of everything, whatever its tier.
const MAX_WAIT_ROUNDS: u32 = 16;

/// The aged weight of a job on priority `tier` that has waited
/// `rounds_waiting` scheduling rounds.
pub(crate) fn effective_weight(tier: u32, rounds_waiting: u32) -> f64 {
    let base = TIER_BASE.powi(-(tier.min(64) as i32));
    base * (1.0 + AGING_BOOST * f64::from(rounds_waiting))
}

/// Whether a job that has waited `rounds_waiting` rounds is starved.
pub(crate) fn is_starved(rounds_waiting: u32) -> bool {
    rounds_waiting >= MAX_WAIT_ROUNDS
}

/// One pending gang's place in the launch walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankEntry {
    /// Index into the caller's job table.
    pub job_idx: usize,
    /// Index into the caller's per-round request table.
    pub slot: usize,
    /// Aged weight × Eq. 4 advantage; higher launches first.
    pub value: f64,
    /// Starved jobs sort ahead of everything.
    pub starved: bool,
}

/// Orders pending gangs for the launch walk: starved first, then by
/// descending value, ties broken by ascending job index so the order is
/// total and deterministic.
pub fn rank(entries: &mut [RankEntry]) {
    entries.sort_by(|a, b| {
        b.starved
            .cmp(&a.starved)
            .then_with(|| b.value.total_cmp(&a.value))
            .then_with(|| a.job_idx.cmp(&b.job_idx))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_tier_number_means_lower_weight() {
        assert!(effective_weight(0, 0) > effective_weight(1, 0));
        assert!(effective_weight(1, 0) > effective_weight(3, 0));
    }

    #[test]
    fn aging_eventually_overtakes_a_fresh_higher_tier() {
        // A tier-3 job that has waited long enough outweighs a fresh
        // tier-0 job: weight ratio 8 needs (w-1)/0.25 > 7 → 28 rounds.
        let mut rounds = 0;
        while effective_weight(3, rounds) <= effective_weight(0, 0) {
            rounds += 1;
            assert!(rounds < 100, "aging never overtook the higher tier");
        }
        assert!(rounds > 0);
    }

    #[test]
    fn rank_puts_starved_first_then_value_then_index() {
        let mut e = vec![
            RankEntry {
                job_idx: 0,
                slot: 0,
                value: 5.0,
                starved: false,
            },
            RankEntry {
                job_idx: 1,
                slot: 1,
                value: 1.0,
                starved: true,
            },
            RankEntry {
                job_idx: 2,
                slot: 2,
                value: 5.0,
                starved: false,
            },
            RankEntry {
                job_idx: 3,
                slot: 3,
                value: 9.0,
                starved: false,
            },
        ];
        rank(&mut e);
        let order: Vec<usize> = e.iter().map(|x| x.job_idx).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn starvation_threshold() {
        assert!(!is_starved(MAX_WAIT_ROUNDS - 1));
        assert!(is_starved(MAX_WAIT_ROUNDS));
    }

    #[test]
    fn aging_weight_is_monotone_in_rounds_waiting() {
        let mut last = 0.0;
        for rounds in 0..64 {
            let w = effective_weight(3, rounds);
            assert!(w > last, "aging regressed at round {rounds}");
            last = w;
        }
        // Sanity: an aged tier-3 eventually outweighs a fresh tier-0.
        assert!(effective_weight(3, 64) > effective_weight(0, 0));
    }
}
