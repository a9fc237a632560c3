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
//! price-history simulation. The model keeps what the cost study uses,
//! the fixed price and the preemption rate; `costsim::run_gce_job` draws
//! the preemptions.

use proteus_simtime::SimDuration;

use crate::instance::MarketKey;

/// Fixed preemptible discount: 70 % below on-demand.
pub const GCE_DISCOUNT: f64 = 0.70;

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

/// A minimal GCE-style provider: fixed prices and a Poisson preemption
/// rate.
#[derive(Debug, Clone)]
pub struct GceMarket {
    model: PreemptionModel,
}

impl GceMarket {
    /// Creates a GCE market with the given preemption model.
    pub fn new(model: PreemptionModel) -> Self {
        GceMarket { model }
    }

    /// The fixed preemptible price for an instance type.
    pub fn price(&self, market: MarketKey) -> f64 {
        market.instance_type().on_demand_price * (1.0 - GCE_DISCOUNT)
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
        let m = GceMarket::new(PreemptionModel::default());
        let od = key().instance_type().on_demand_price;
        assert!((m.price(key()) - 0.3 * od).abs() < 1e-12);
    }

    #[test]
    fn preemption_probability_increases_with_window() {
        let m = GceMarket::new(PreemptionModel {
            preemptions_per_day: 1.0,
        });
        let p1 = m.preemption_probability(SimDuration::from_hours(1));
        let p12 = m.preemption_probability(SimDuration::from_hours(12));
        assert!(p1 > 0.0 && p1 < p12 && p12 < 1.0);
    }
}
