//! Google Compute Engine preemptible instances (Sec. 2.2 of the paper),
//! a market the one provider serves: a fixed price 70 % below on-demand,
//! exogenous revocations (an exponential lifetime per lease, drawn at
//! grant) with a 30-second warning, a 24-hour cap and no refund; hours
//! are billed as on EC2, for comparability. BidBrain's β for it is the
//! model's (Sec. 7: the framework carries to "other cloud providers").

use proteus_simtime::rng::SplitMix64;
use proteus_simtime::{SimDuration, SimTime};

use crate::provider::AllocationId;

/// Fixed preemptible discount: 70 % below on-demand.
pub const GCE_DISCOUNT: f64 = 0.70;

/// Warning lead before a preemption.
const GCE_EVICTION_WARNING: SimDuration = SimDuration::from_secs(30);

/// No preemptible lease outlives a day.
const GCE_MAX_LIFETIME: SimDuration = SimDuration::from_hours(24);

/// Parameters of the exogenous preemption process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionModel {
    /// Mean preemptions per instance per 24 hours.
    pub preemptions_per_day: f64,
}

impl Default for PreemptionModel {
    fn default() -> Self {
        // Published GCE preemption rates for busy zones hover around
        // 5–15 %/day per instance; pick the middle.
        PreemptionModel {
            preemptions_per_day: 0.10,
        }
    }
}

impl PreemptionModel {
    /// Probability an instance is preempted within `window` of launch,
    /// under the exponential lifetime model — the analogue of the
    /// paper's β.
    pub fn preemption_probability(&self, window: SimDuration) -> f64 {
        1.0 - (-self.rate() * window.as_hours_f64()).exp()
    }

    /// The median time to preemption among instances preempted within
    /// `window` (the whole window if none is).
    pub fn median_preemption_within(&self, window: SimDuration) -> SimDuration {
        let half = self.preemption_probability(window) / 2.0;
        if half == 0.0 {
            return window;
        }
        SimDuration::from_hours_f64(-(1.0 - half).ln() / self.rate())
    }

    /// Preemptions per instance-hour, zero if the rate is not positive.
    fn rate(&self) -> f64 {
        (self.preemptions_per_day / 24.0).max(0.0)
    }

    /// Lease `id`'s warning and revocation instants, given its grant and
    /// launch: an exponential lifetime capped at [`GCE_MAX_LIFETIME`],
    /// warned [`GCE_EVICTION_WARNING`] ahead or at launch if shorter. The
    /// draw is one SplitMix64 scramble of `id` and `granted` (as the fault
    /// plan seeds a tenant), so a fork draws what the original would.
    pub(crate) fn fate(&self, id: AllocationId, granted: SimTime, launch: SimTime) -> [SimTime; 2] {
        let seed = id.0 ^ granted.as_millis().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // At rate zero the draw is +∞ or NaN, and `min` takes the cap.
        let hours = -(1.0 - SplitMix64::new(seed).next_f64()).ln() / self.rate();
        let life = SimDuration::from_hours_f64(hours.min(GCE_MAX_LIFETIME.as_hours_f64()));
        let evict_at = launch + life;
        [evict_at - life.min(GCE_EVICTION_WARNING), evict_at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{catalog, MarketKey, Zone};

    #[test]
    fn fixed_discount_is_seventy_percent() {
        let key = MarketKey::new(catalog::c4_xlarge(), Zone::GCE);
        let mut set = crate::TraceSet::new();
        set.insert_preemptible(key, PreemptionModel::default());
        let od = key.instance_type().on_demand_price;
        let price = set.get(&key).expect("registered").price_at(SimTime::EPOCH);
        assert!((price - 0.3 * od).abs() < 1e-12);
    }

    #[test]
    fn preemption_probability_increases_with_window() {
        let m = PreemptionModel {
            preemptions_per_day: 1.0,
        };
        let p1 = m.preemption_probability(SimDuration::from_hours(1));
        let p12 = m.preemption_probability(SimDuration::from_hours(12));
        assert!(p1 > 0.0 && p1 < p12 && p12 < 1.0);
    }

    /// The median inside the hour sits just under half an hour at a low
    /// rate and moves earlier as the rate grows; with no preemptions it
    /// is the whole window.
    #[test]
    fn median_preemption_lies_inside_the_window() {
        let hour = SimDuration::from_hours(1);
        let at = |per_day| {
            PreemptionModel {
                preemptions_per_day: per_day,
            }
            .median_preemption_within(hour)
        };
        assert_eq!(at(0.0), hour);
        let (calm, stormy) = (at(0.1), at(48.0));
        assert!(calm < SimDuration::from_mins(30) && calm > SimDuration::from_mins(29));
        assert!(stormy < calm, "{stormy:?} vs {calm:?}");
    }

    /// A fate is a function of the lease alone; it never outlives the
    /// cap, and its warning leads by thirty seconds or sits at launch.
    #[test]
    fn fates_replay_and_respect_the_cap_and_the_lead() {
        let launch = SimTime::from_hours(5);
        let storm = PreemptionModel {
            preemptions_per_day: 2_000.0,
        };
        let calm = PreemptionModel {
            preemptions_per_day: 0.0,
        };
        for id in 0..200 {
            let fate = storm.fate(AllocationId(id), launch, launch);
            assert_eq!(fate, storm.fate(AllocationId(id), launch, launch));
            let [warn_at, evict_at] = fate;
            let lead = evict_at.since(warn_at);
            assert!(
                lead == GCE_EVICTION_WARNING || warn_at == launch,
                "{fate:?}"
            );
            assert!(lead <= GCE_EVICTION_WARNING);
            let [_, never] = calm.fate(AllocationId(id), launch, launch);
            assert_eq!(never, launch + GCE_MAX_LIFETIME);
        }
    }
}
