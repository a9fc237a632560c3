//! Property-based billing invariants under arbitrary fault plans: no
//! combination of capacity droughts, throttling, boot delays, and
//! infant mortality may bend the ledger. Refused requests never bill,
//! boot windows never bill, and refunds never exceed charges —
//! per-allocation and in aggregate.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proteus_market::{
    catalog, AllocationId, CloudProvider, LedgerKind, MarketError, MarketFaultPlan, MarketKey,
    MarketModel, TraceGenerator, TraceSet, Zone,
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

    /// Billing conservation under any fault plan: drive a request loop
    /// through a drought window with throttling, boot delays, and
    /// infant mortality all armed, and check that
    ///
    /// * a refused request (capacity or throttle) adds no ledger entry,
    /// * no allocation is billed before it becomes usable (boot
    ///   windows, and launches aborted by a bid crossing, are free),
    /// * eviction refunds never exceed an allocation's charges, so the
    ///   net cost is non-negative per allocation and in total,
    /// * the fault counters agree with the typed errors the caller saw.
    #[test]
    fn faulty_markets_never_bend_the_ledger(
        trace_seed in 0u64..200,
        fault_seed in 0u64..200,
        cap in 0u32..4,
        drought_from in 0u64..6,
        drought_hours in 1u64..12,
        throttle_p in 0.0f64..0.6,
        boot_max_mins in 1u64..90,
        infant_p in 0.0f64..0.6,
        infant_mins in 1u64..50,
        count in 1u32..6,
        delta in 0.001f64..0.3,
        hold_hours in 2u64..14,
    ) {
        let plan = MarketFaultPlan::new(fault_seed)
            .with_drought(
                SimTime::from_hours(drought_from),
                SimTime::from_hours(drought_from + drought_hours),
                cap,
            )
            .with_throttle(throttle_p, SimDuration::from_mins(5))
            .with_boot_delay(SimDuration::ZERO, SimDuration::from_mins(boot_max_mins))
            .with_infant_mortality(infant_p, SimDuration::from_mins(infant_mins));
        let mut p = provider(trace_seed);
        p.set_fault_plan(plan.clone());

        let mut usable: BTreeMap<AllocationId, SimTime> = BTreeMap::new();
        let mut seen_capacity = 0u64;
        let mut seen_throttle = 0u64;
        for h in 0..hold_hours {
            let now = SimTime::from_hours(h);
            let price = p.spot_price(market()).expect("trace covers the run");
            let before = p.account().entries().len();
            let live_before: u32 = p.live_spot().map(|a| a.count).sum();
            match p.request_spot(market(), count, price + delta) {
                Ok(grant) => {
                    prop_assert!(grant.granted >= 1 && grant.granted <= count);
                    prop_assert!(grant.usable_at >= now);
                    // The drought cap gates new grants on live headroom
                    // (boot included); leases predating the window are
                    // not evicted, so the cap binds the grant, not the
                    // total.
                    if let Some(limit) = plan.capacity_limit(market(), now) {
                        prop_assert!(
                            grant.granted <= limit.saturating_sub(live_before),
                            "grant {} exceeds headroom {} under cap {limit}",
                            grant.granted,
                            limit.saturating_sub(live_before),
                        );
                    }
                    usable.insert(grant.id, grant.usable_at);
                }
                Err(MarketError::InsufficientCapacity { available, .. }) => {
                    prop_assert_eq!(available, 0, "non-zero headroom must partially grant");
                    prop_assert_eq!(p.account().entries().len(), before,
                        "a capacity refusal billed something");
                    let limit = plan
                        .capacity_limit(market(), now)
                        .expect("refusals only come from an active cap");
                    prop_assert!(live_before >= limit,
                        "refused with headroom: live {live_before} cap {limit}");
                    seen_capacity += 1;
                }
                Err(MarketError::RequestLimitExceeded { retry_after }) => {
                    prop_assert!(retry_after > SimDuration::ZERO);
                    prop_assert_eq!(p.account().entries().len(), before,
                        "a throttled request billed something");
                    seen_throttle += 1;
                }
                Err(other) => prop_assert!(false, "unexpected refusal: {other}"),
            }
            p.advance_to(SimTime::from_hours(h + 1)).expect("forward");
        }
        let live: Vec<AllocationId> = p.live_spot().map(|a| a.id).collect();
        for id in live {
            p.terminate(id).expect("live allocation terminates");
        }

        // No allocation billed before its launch; refunds covered by
        // charges allocation-by-allocation.
        let mut net: BTreeMap<AllocationId, f64> = BTreeMap::new();
        for e in p.account().entries() {
            if let Some(&usable_at) = usable.get(&e.allocation) {
                prop_assert!(e.time >= usable_at,
                    "entry {:?} predates launch at {:?}", e, usable_at);
            }
            if e.kind != LedgerKind::OnDemandHour {
                *net.entry(e.allocation).or_insert(0.0) += e.amount;
            }
        }
        for (id, total) in &net {
            prop_assert!(*total >= -1e-9, "allocation {id:?} netted {total}");
        }
        let account = p.account();
        prop_assert!(account.total_cost() >= -1e-9);
        let charges: f64 = account
            .entries()
            .iter()
            .filter(|e| e.amount > 0.0)
            .map(|e| e.amount)
            .sum();
        prop_assert!(account.total_refunds() <= charges + 1e-9);

        // Typed errors and fault counters tell the same story.
        let stats = p.fault_stats().expect("plan installed");
        prop_assert_eq!(stats.capacity_refusals, seen_capacity);
        prop_assert_eq!(stats.throttled, seen_throttle);
    }
}
