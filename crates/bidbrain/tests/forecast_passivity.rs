//! Property-based passivity invariant for the preemption forecaster: a
//! forecaster watching a provider's price stream is read-only on the
//! billing plane. Whatever it concludes — alerts, false alarms, nothing
//! — the watched provider's ledger must be bit-identical to an
//! unwatched twin driven through the same request loop. This is the
//! market-plane half of the eviction-defense contract; the session- and
//! training-plane halves live in `core/tests/forecast_chaos.rs` and
//! `agileml/tests/predrain.rs`.

use proptest::prelude::*;
use proteus_bidbrain::{ForecastConfig, PreemptionForecaster};
use proteus_market::{
    catalog, CloudProvider, MarketKey, MarketModel, TraceGenerator, TraceSet, Zone,
};
use proteus_simtime::{SimDuration, SimTime};

fn market() -> MarketKey {
    MarketKey::new(catalog::c4_xlarge(), Zone(0))
}

fn provider(seed: u64) -> CloudProvider<'static> {
    let gen = TraceGenerator::new(seed, MarketModel::volatile());
    let mut set = TraceSet::new();
    set.insert(
        market(),
        gen.generate(market(), SimDuration::from_hours(24 * 3)),
    );
    CloudProvider::new(set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Drive two identical providers through the same hourly request
    /// loop; feed every price sample of one into a forecaster with
    /// arbitrary (valid) tuning. Alert or no alert, the bills, ledgers,
    /// and usage breakdowns must match exactly.
    #[test]
    fn forecasting_never_bends_the_ledger(
        trace_seed in 0u64..200,
        count in 1u32..6,
        delta in 0.001f64..0.3,
        hold_hours in 2u64..14,
        alert_threshold in 0.31f64..0.9,
        margin_band in 0.05f64..0.5,
    ) {
        let cfg = ForecastConfig {
            alert_threshold,
            rearm_threshold: 0.3,
            margin_band,
            ..ForecastConfig::default()
        };
        prop_assert!(cfg.validate().is_ok(), "generated config invalid");
        let mut fc = PreemptionForecaster::new(cfg);

        let mut watched = provider(trace_seed);
        let mut plain = provider(trace_seed);
        for h in 0..hold_hours {
            let now = SimTime::from_hours(h);
            let price = watched.spot_price(market()).expect("trace covers");
            let bid = price + delta;
            for a in watched.live_spot() {
                prop_assert!((0.0..=1.0).contains(&fc.hazard(a.market, a.bid)));
                // Alerts may or may not fire; neither matters below.
                let _ = fc.observe(a.market, a.bid, now, price);
            }
            let _ = watched.request_spot(market(), count, bid);
            let _ = plain.request_spot(market(), count, bid);
            watched.advance_to(SimTime::from_hours(h + 1)).expect("forward");
            plain.advance_to(SimTime::from_hours(h + 1)).expect("forward");
        }
        prop_assert_eq!(
            watched.account().total_cost().to_bits(),
            plain.account().total_cost().to_bits(),
            "observation changed the bill"
        );
        prop_assert_eq!(
            watched.account().entries().len(),
            plain.account().entries().len(),
            "observation changed the ledger"
        );
        prop_assert_eq!(
            watched.account().usage(), plain.account().usage(),
            "observation changed usage accounting"
        );
    }
}
