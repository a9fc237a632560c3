//! The standard bidding strategy baseline (paper Sec. 6.3).
//!
//! "An oft-used bidding strategy that selects the resource type with the
//! lowest current market price and bids the on-demand price. It uses
//! these resources until they are evicted, at which point it again
//! selects the resources with the lowest current market price and bids
//! the on-demand price." This is the default policy of EC2 Spot Fleet
//! and what Flint-style systems use; Proteus is evaluated against it.

use proteus_market::MarketKey;

use crate::policy::AllocationRequest;

/// The standard strategy: cheapest market per core, bid = on-demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardStrategy {
    /// Total vCPUs to (re-)acquire whenever holdings are empty.
    pub target_cores: u32,
}

impl StandardStrategy {
    /// Creates the strategy for a core budget.
    pub fn new(target_cores: u32) -> Self {
        StandardStrategy { target_cores }
    }

    /// Picks the market with the lowest current price **per core** and
    /// bids the on-demand price for enough instances to fill the budget.
    ///
    /// Returns `None` when no market is offered or the budget is zero.
    pub fn acquire(&self, markets: &[(MarketKey, f64)]) -> Option<AllocationRequest> {
        if self.target_cores == 0 {
            return None;
        }
        // Prices come from traces, which reject non-finite points at
        // construction; vcpus is a non-zero hardware constant.
        #[allow(clippy::expect_used)]
        let (market, price) = markets
            .iter()
            .min_by(|(ma, pa), (mb, pb)| {
                let ca = pa / f64::from(ma.instance_type().vcpus);
                let cb = pb / f64::from(mb.instance_type().vcpus);
                ca.partial_cmp(&cb).expect("prices are finite")
            })
            .copied()?;
        let vcpus = market.instance_type().vcpus;
        let count = (self.target_cores / vcpus).max(1);
        let od = market.instance_type().on_demand_price;
        Some(AllocationRequest {
            market,
            count,
            bid: od,
            delta: od - price,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_market::{catalog, Zone};

    fn mk(i: usize, z: u8) -> MarketKey {
        MarketKey::new(i, Zone(z))
    }

    #[test]
    fn picks_cheapest_per_core_market() {
        let s = StandardStrategy::new(64);
        // c4.xlarge (4 cores) at 0.05 → 0.0125/core;
        // c4.2xlarge (8 cores) at 0.08 → 0.01/core (cheaper per core).
        let req = s
            .acquire(&[
                (mk(catalog::c4_xlarge(), 0), 0.05),
                (mk(catalog::c4_2xlarge(), 1), 0.08),
            ])
            .expect("markets offered");
        assert_eq!(req.market, mk(catalog::c4_2xlarge(), 1));
        assert_eq!(req.count, 8); // 64 cores / 8 per instance.
        let od = req.market.instance_type().on_demand_price;
        assert!((req.bid - od).abs() < 1e-12, "bids the on-demand price");
    }

    #[test]
    fn empty_market_list_yields_nothing() {
        assert!(StandardStrategy::new(64).acquire(&[]).is_none());
        assert!(StandardStrategy::new(0)
            .acquire(&[(mk(0, 0), 0.05)])
            .is_none());
    }

    #[test]
    fn small_budgets_still_get_one_instance() {
        let s = StandardStrategy::new(2); // Less than one c4.xlarge.
        let req = s.acquire(&[(mk(catalog::c4_xlarge(), 0), 0.05)]).unwrap();
        assert_eq!(req.count, 1);
    }
}
