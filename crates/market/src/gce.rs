//! Google Compute Engine preemptible-instance market model.
//!
//! GCE preemptible instances (Sec. 2.2 of the paper) differ from EC2 spot:
//! a *fixed* price 70 % below on-demand (no bidding, no price variability),
//! a 30-second warning instead of two minutes, a hard 24-hour lifetime, and
//! no refund mechanism (billing is per-minute in practice; we keep the
//! hourly accounting for comparability). Revocations arrive exogenously —
//! modelled as a Poisson process — rather than through price crossings.
//!
//! This module exists to demonstrate that BidBrain's framework "can also be
//! applied in other cloud provider settings" (Sec. 4): cost-per-work still
//! drives decisions, with β supplied by the revocation rate rather than by
//! price-history simulation.

use proteus_simtime::rng::seeded_stream;
use proteus_simtime::{SimDuration, SimTime};
use rand::Rng;

use crate::instance::MarketKey;

/// Fixed preemptible discount: 70 % below on-demand.
pub const GCE_DISCOUNT: f64 = 0.70;
/// GCE's warning lead before preemption.
pub const GCE_WARNING: SimDuration = SimDuration::from_secs(30);
/// Maximum preemptible-instance lifetime.
pub const GCE_MAX_LIFETIME: SimDuration = SimDuration::from_hours(24);

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

/// A granted preemptible allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptibleLease {
    /// Market (the zone is ignored for pricing; GCE prices are regional).
    pub market: MarketKey,
    /// Instance count.
    pub count: u32,
    /// Grant instant.
    pub granted_at: SimTime,
    /// Scheduled revocation instant (preemption or the 24 h limit).
    pub revoke_at: SimTime,
}

impl PreemptibleLease {
    /// The fixed hourly price per instance.
    pub fn hourly_price(&self) -> f64 {
        self.market.instance_type().on_demand_price * (1.0 - GCE_DISCOUNT)
    }

    /// When the 30-second warning fires.
    pub fn warning_at(&self) -> SimTime {
        self.revoke_at - GCE_WARNING
    }
}

/// A minimal GCE-style provider: fixed prices, Poisson preemptions,
/// 24-hour lifetime cap.
#[derive(Debug, Clone)]
pub struct GceMarket {
    model: PreemptionModel,
    seed: u64,
    grants: u64,
}

impl GceMarket {
    /// Creates a GCE market with the given preemption model.
    pub fn new(seed: u64, model: PreemptionModel) -> Self {
        GceMarket {
            model,
            seed,
            grants: 0,
        }
    }

    /// The fixed preemptible price for an instance type.
    pub fn price(&self, market: MarketKey) -> f64 {
        market.instance_type().on_demand_price * (1.0 - GCE_DISCOUNT)
    }

    /// Grants a preemptible allocation at `now`, drawing its preemption
    /// time from the Poisson model (capped at the 24-hour lifetime).
    pub fn grant(&mut self, market: MarketKey, count: u32, now: SimTime) -> PreemptibleLease {
        let mut rng = seeded_stream(self.seed, self.grants);
        self.grants += 1;
        let rate_per_hour = self.model.preemptions_per_day / 24.0;
        let ttl = if rate_per_hour <= 0.0 {
            GCE_MAX_LIFETIME
        } else {
            let u: f64 = rng.gen_range(1e-12..1.0);
            SimDuration::from_hours_f64(-u.ln() / rate_per_hour).min(GCE_MAX_LIFETIME)
        };
        PreemptibleLease {
            market,
            count,
            granted_at: now,
            revoke_at: now + ttl,
        }
    }

    /// Probability an instance is preempted within `window`, under the
    /// exponential lifetime model — the analogue of the paper's β.
    pub fn preemption_probability(&self, window: SimDuration) -> f64 {
        let rate_per_hour = self.model.preemptions_per_day / 24.0;
        1.0 - (-rate_per_hour * window.as_hours_f64()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{catalog, Zone};

    fn key() -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(0))
    }

    #[test]
    fn fixed_discount_is_seventy_percent() {
        let m = GceMarket::new(1, PreemptionModel::default());
        let od = key().instance_type().on_demand_price;
        assert!((m.price(key()) - 0.3 * od).abs() < 1e-12);
    }

    #[test]
    fn lifetime_capped_at_24_hours() {
        let mut m = GceMarket::new(
            1,
            PreemptionModel {
                preemptions_per_day: 0.0,
            },
        );
        let lease = m.grant(key(), 2, SimTime::EPOCH);
        assert_eq!(lease.revoke_at, SimTime::EPOCH + GCE_MAX_LIFETIME);
        assert_eq!(lease.warning_at(), lease.revoke_at - GCE_WARNING);
    }

    #[test]
    fn grants_are_deterministic_per_seed() {
        let mut a = GceMarket::new(9, PreemptionModel::default());
        let mut b = GceMarket::new(9, PreemptionModel::default());
        assert_eq!(
            a.grant(key(), 1, SimTime::EPOCH),
            b.grant(key(), 1, SimTime::EPOCH)
        );
    }

    #[test]
    fn preemption_probability_increases_with_window() {
        let m = GceMarket::new(
            1,
            PreemptionModel {
                preemptions_per_day: 1.0,
            },
        );
        let p1 = m.preemption_probability(SimDuration::from_hours(1));
        let p12 = m.preemption_probability(SimDuration::from_hours(12));
        assert!(p1 > 0.0 && p1 < p12 && p12 < 1.0);
    }

    #[test]
    fn higher_preemption_rate_shortens_lifetimes_on_average() {
        let mut calm = GceMarket::new(
            4,
            PreemptionModel {
                preemptions_per_day: 0.05,
            },
        );
        let mut busy = GceMarket::new(
            4,
            PreemptionModel {
                preemptions_per_day: 5.0,
            },
        );
        let mean = |m: &mut GceMarket| -> f64 {
            (0..200)
                .map(|_| m.grant(key(), 1, SimTime::EPOCH).revoke_at.as_hours_f64())
                .sum::<f64>()
                / 200.0
        };
        assert!(mean(&mut busy) < mean(&mut calm));
    }
}
