//! Property test of a GCE-only provider: the preemptible markets'
//! revocations come from their model, are warned thirty seconds ahead,
//! never let a lease outlive a day, and refund nothing.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proteus_market::{
    catalog, AllocationId, CloudProvider, LedgerKind, MarketKey, PreemptionModel, ProviderEvent,
    TraceSet, Zone,
};
use proteus_simtime::{SimDuration, SimTime};

/// Rates a case draws from, in preemptions per instance-day: none, the
/// default, and up to one every half hour.
const RATES: [f64; 6] = [0.0, 0.1, 1.0, 4.0, 12.0, 48.0];

/// GCE's warning lead and lifetime cap (Sec. 2.2), stated here rather
/// than read from the market crate, so a change there fails this test.
const WARNING: SimDuration = SimDuration::from_secs(30);
const DAY: SimDuration = SimDuration::from_hours(24);

/// What the provider did to one lease.
#[derive(Debug, Default)]
struct Life {
    granted: SimTime,
    warned: Option<SimTime>,
    evicted: Option<SimTime>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `leases` single-instance leases granted every `gap_mins` from
    /// `start_mins`, alternating between the two GCE markets, watched
    /// in 7-minute steps until a day and an hour past the last grant.
    ///
    /// - Revocations inside each lease's first hour number
    ///   X ~ Binomial(leases, p), p = 1 − e^(−rate / 24): X lies within
    ///   4.5 standard deviations of its mean, plus one.
    /// - Every lease is revoked no later than 24 h after its launch.
    /// - Every revocation was warned, exactly 30 s before it, or at
    ///   launch when the lease lived less than that.
    /// - No ledger entry refunds an eviction.
    #[test]
    fn preemptible_leases_follow_their_model(
        rate_index in 0usize..6,
        leases in 16u64..96,
        start_mins in 0u64..600,
        gap_mins in 0u64..9,
    ) {
        let model = PreemptionModel { preemptions_per_day: RATES[rate_index] };
        let markets = [catalog::c4_xlarge(), catalog::c4_2xlarge()]
            .map(|i| MarketKey::new(i, Zone::GCE));
        let mut traces = TraceSet::new();
        for m in markets {
            traces.insert_preemptible(m, model);
        }
        let mut p = CloudProvider::new(traces);

        let mut lives: BTreeMap<AllocationId, Life> = BTreeMap::new();
        let record = |events: Vec<(SimTime, ProviderEvent)>,
                          lives: &mut BTreeMap<AllocationId, Life>| {
            for (t, ev) in events {
                match ev {
                    ProviderEvent::EvictionWarning { allocation, evict_at } => {
                        let life = lives.get_mut(&allocation).expect("granted");
                        assert!(life.warned.is_none(), "warned twice");
                        life.warned = Some(t);
                        assert!(evict_at >= t);
                    }
                    ProviderEvent::Evicted { allocation } => {
                        lives.get_mut(&allocation).expect("granted").evicted = Some(t);
                    }
                    other => panic!("no boot on a pristine market: {other:?}"),
                }
            }
        };
        let mut now = SimTime::EPOCH + SimDuration::from_mins(start_mins);
        for i in 0..leases {
            let events = p.advance_to(now).expect("forward");
            record(events, &mut lives);
            let market = markets[(i % 2) as usize];
            let price = p.spot_price(market).expect("registered");
            let grant = p.request_spot(market, 1, price).expect("a flat price grants");
            lives.insert(grant.id, Life { granted: now, ..Life::default() });
            now += SimDuration::from_mins(gap_mins);
        }
        let end = now + DAY + SimDuration::from_hours(1);
        while now < end {
            now = (now + SimDuration::from_mins(7)).min(end);
            let events = p.advance_to(now).expect("forward");
            record(events, &mut lives);
        }

        let mut first_hour = 0u64;
        for (id, life) in &lives {
            let evicted = life.evicted.unwrap_or_else(|| panic!("{id} outlived a day: {life:?}"));
            let lived = evicted.since(life.granted);
            prop_assert!(lived <= DAY, "{id} lived {lived:?}");
            let warned = life.warned.expect("every revocation is warned");
            let lead = evicted.since(warned);
            prop_assert!(
                lead == WARNING || (warned == life.granted && lead < WARNING),
                "{id}: warned {lead:?} ahead, {life:?}"
            );
            first_hour += u64::from(lived <= SimDuration::from_hours(1));
        }
        prop_assert_eq!(p.live_spot().count(), 0);

        let n = leases as f64;
        let q = 1.0 - (-model.preemptions_per_day / 24.0).exp();
        let (mean, sd) = (n * q, (n * q * (1.0 - q)).sqrt());
        prop_assert!(
            (first_hour as f64 - mean).abs() <= 4.5 * sd + 1.0,
            "{first_hour} of {leases} revoked in their first hour at {} a day (mean {mean:.2})",
            model.preemptions_per_day
        );

        let refunds = (p.account().entries().iter())
            .filter(|e| e.kind == LedgerKind::EvictionRefund)
            .count();
        prop_assert_eq!(refunds, 0);
        prop_assert_eq!(p.account().usage().free_hours, 0.0);
    }
}
