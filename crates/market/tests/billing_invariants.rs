//! Property-based invariants of the market billing engine: whatever the
//! trace and bidding behavior, the ledger must stay internally
//! consistent.

use proptest::prelude::*;
use proteus_market::{
    catalog, AllocationId, CloudProvider, LedgerKind, MarketError, MarketFaultPlan, MarketKey,
    MarketModel, PriceTrace, ProviderEvent, TraceGenerator, TraceSet, Zone,
};
use proteus_simtime::{SimDuration, SimTime};

fn market() -> MarketKey {
    MarketKey::new(catalog::c4_xlarge(), Zone(0))
}

/// A provider over a generated trace for the given seed/model.
fn provider(seed: u64, volatile: bool) -> CloudProvider<'static> {
    let model = if volatile {
        MarketModel::volatile()
    } else {
        MarketModel::default()
    };
    let gen = TraceGenerator::new(seed, model);
    let mut set = TraceSet::new();
    set.insert(
        market(),
        gen.generate(market(), SimDuration::from_hours(24 * 3)),
    );
    CloudProvider::new(set)
}

/// Three volatile markets over ten days, so multi-day jumps stay inside
/// the generated history.
fn three_markets(seed: u64) -> (Vec<MarketKey>, CloudProvider<'static>) {
    let markets: Vec<MarketKey> = catalog::paper_markets().into_iter().step_by(3).collect();
    let traces = TraceGenerator::new(seed, MarketModel::volatile())
        .generate_set(&markets, SimDuration::from_hours(24 * 10));
    (markets, CloudProvider::new(traces))
}

/// `m`'s price at `t` read off the provider's trace: the oracle its
/// price cursor and its billed hours are checked against.
fn trace_price(p: &CloudProvider<'_>, m: MarketKey, t: SimTime) -> f64 {
    p.traces().get(&m).expect("registered").price_at(t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Refunds never exceed charges for any allocation, and the net cost
    /// is never negative — no sequence of grants, evictions, and
    /// advances can mint money.
    #[test]
    fn refunds_never_exceed_charges(
        seed in 0u64..500,
        volatile in any::<bool>(),
        delta in 0.0005f64..0.2,
        count in 1u32..16,
        hold_hours in 1u64..10,
    ) {
        let mut p = provider(seed, volatile);
        let price = p.spot_price(market()).expect("trace covers epoch");
        let _id = p.request_spot(market(), count, price + delta).expect("bid >= market");
        p.advance_to(SimTime::from_hours(hold_hours)).expect("forward");

        let account = p.account();
        prop_assert!(account.total_cost() >= -1e-9, "net cost {}", account.total_cost());
        let charges: f64 = account
            .entries()
            .iter()
            .filter(|e| e.amount > 0.0)
            .map(|e| e.amount)
            .sum();
        prop_assert!(account.total_refunds() <= charges + 1e-9);
    }

    /// Usage accounting: free hours only exist when a refund exists, and
    /// total usage time never exceeds instances × wall time.
    #[test]
    fn usage_is_bounded_and_consistent(
        seed in 0u64..500,
        delta in 0.0005f64..0.1,
        count in 1u32..8,
        hold_hours in 1u64..8,
    ) {
        let mut p = provider(seed, true);
        let price = p.spot_price(market()).expect("covered");
        let id = p.request_spot(market(), count, price + delta).expect("granted").id;
        p.advance_to(SimTime::from_hours(hold_hours)).expect("forward");
        if p.live_spot().any(|a| a.id == id) {
            p.terminate(id).expect("live allocation terminates");
        }

        let usage = *p.account().usage();
        let wall = hold_hours as f64 * f64::from(count);
        prop_assert!(usage.total_hours() <= wall + 1e-6,
            "usage {} vs wall {}", usage.total_hours(), wall);
        if usage.free_hours > 0.0 {
            prop_assert!(
                p.account().total_refunds() > 0.0,
                "free hours imply a refund"
            );
        }
        // Paid spot hours must be covered by positive spot charges.
        let spot_charges: f64 = p
            .account()
            .entries()
            .iter()
            .filter(|e| e.kind == LedgerKind::SpotHour)
            .map(|e| e.amount)
            .sum();
        if usage.spot_paid_hours > 0.0 {
            prop_assert!(spot_charges > 0.0);
        }
    }

    /// Advancing in many small steps bills identically to one big jump —
    /// the discrete-event engine is step-size independent.
    #[test]
    fn billing_is_step_size_independent(
        seed in 0u64..200,
        delta in 0.001f64..0.1,
        count in 1u32..4,
    ) {
        let run = |steps: u64| -> (f64, f64) {
            let mut p = provider(seed, true);
            let price = p.spot_price(market()).expect("covered");
            let _ = p.request_spot(market(), count, price + delta).expect("granted");
            let total = SimDuration::from_hours(6);
            for i in 1..=steps {
                p.advance_to(SimTime::EPOCH + (total / steps) * i).expect("forward");
            }
            (p.account().total_cost(), p.account().usage().total_hours())
        };
        let (cost_one, hours_one) = run(1);
        let (cost_many, hours_many) = run(180);
        prop_assert!((cost_one - cost_many).abs() < 1e-9,
            "cost {} vs {}", cost_one, cost_many);
        prop_assert!((hours_one - hours_many).abs() < 1e-9);
    }

    /// The scripted-trace path agrees with hand arithmetic: holding
    /// through `n` hours of a constant-price market costs exactly
    /// `n × price × count`.
    #[test]
    fn constant_market_bills_linearly(
        price in 0.01f64..0.5,
        count in 1u32..10,
        hours in 1u64..12,
    ) {
        let mut set = TraceSet::new();
        set.insert(market(), PriceTrace::from_points(vec![(SimTime::EPOCH, price)]).expect("flat trace"));
        let mut p = CloudProvider::new(set);
        let _ = p.request_spot(market(), count, price + 1.0).expect("granted");
        p.advance_to(SimTime::from_hours(hours)).expect("forward");
        let expect = price * f64::from(count) * hours as f64
            + price * f64::from(count); // Hour `hours` charged at its boundary.
        prop_assert!((p.account().total_cost() - expect).abs() < 1e-9,
            "cost {} vs {}", p.account().total_cost(), expect);
    }

    /// The tenant-visible record states the provider's bill: under any
    /// script of grants, advances, terminations and revocations — with
    /// boot delays, infant deaths and market evictions — every live
    /// launched allocation's `hour_price` is the market price at its
    /// `hour_start` bit for bit, its `hour_charge` is the last amount
    /// the ledger charged it, and its hour ends one hour after it
    /// started. A booting allocation was charged nothing.
    #[test]
    fn spot_record_matches_what_was_billed(
        seed in 0u64..300,
        fault_seed in 0u64..300,
        boot_max_mins in 1u64..30,
        infant_p in 0.0f64..0.5,
        script in proptest::collection::vec(
            ((0u8..5, 0usize..8), 1u32..5, 0.0005f64..0.2, 1u64..90),
            1..40,
        ),
    ) {
        let mut p = provider(seed, true);
        p.set_fault_plan(
            MarketFaultPlan::new(fault_seed)
                .with_boot_delay(SimDuration::ZERO, SimDuration::from_mins(boot_max_mins))
                .with_infant_mortality(infant_p, SimDuration::from_mins(45)),
        );
        for ((kind, pick), count, delta, mins) in script {
            let live: Vec<AllocationId> = p.live_spot().map(|a| a.id).collect();
            let picked = (!live.is_empty()).then(|| live[pick % live.len()]);
            match kind {
                0 => {
                    let price = p.spot_price(market()).expect("covered");
                    let _ = p.request_spot(market(), count, price + delta);
                }
                1 | 2 => {
                    let to = p.now() + SimDuration::from_mins(mins);
                    p.advance_to(to).expect("forward");
                }
                3 => {
                    if let Some(id) = picked {
                        p.terminate(id).expect("live allocation terminates");
                    }
                }
                _ => {
                    if let Some(id) = picked {
                        p.revoke(id).expect("live allocation revokes");
                    }
                }
            }
            for a in p.live_spot() {
                prop_assert_eq!(a.hour_end(), a.hour_start + SimDuration::from_hours(1));
                if a.is_booting() {
                    prop_assert_eq!(a.hour_price, 0.0);
                    continue;
                }
                let billed = trace_price(&p, a.market, a.hour_start);
                prop_assert_eq!(a.hour_price.to_bits(), billed.to_bits(), "{:?}", a);
                let charged = p
                    .account()
                    .entries()
                    .iter()
                    .rev()
                    .find(|e| e.allocation == a.id && e.kind == LedgerKind::SpotHour)
                    .map(|e| e.amount);
                prop_assert_eq!(charged.map(f64::to_bits), Some(a.hour_charge().to_bits()));
                if !a.is_warned() {
                    prop_assert!(a.hour_start <= p.now() && p.now() < a.hour_end());
                }
            }
        }
    }
    /// The provider's price cursor is the trace read at `now()`. Under
    /// any script of grants, advances (two-minute steps, longer moves,
    /// jumps landing exactly on a price change, multi-day jumps),
    /// terminations and revocations — with boot delays, infant deaths
    /// and warned evictions — `spot_price` and `spot_prices` equal
    /// the trace's price at `now()` bit for bit after every call; every
    /// hour the ledger charged was priced at its own instant (the
    /// cursor read mid-advance); and every warning or failed launch
    /// fired at a price above its bid.
    #[test]
    fn price_cursor_is_the_trace_at_now(
        seed in 0u64..300,
        fault_seed in 0u64..300,
        boot_max_mins in 1u64..30,
        infant_p in 0.0f64..0.5,
        script in proptest::collection::vec(
            ((0u8..8, 0usize..8), 1u32..5, 0.0005f64..0.2, 1u64..90),
            1..60,
        ),
    ) {
        let (markets, mut p) = three_markets(seed);
        p.set_fault_plan(
            MarketFaultPlan::new(fault_seed)
                .with_boot_delay(SimDuration::ZERO, SimDuration::from_mins(boot_max_mins))
                .with_infant_mortality(infant_p, SimDuration::from_mins(45)),
        );
        let mut granted: Vec<(AllocationId, MarketKey, f64)> = Vec::new();
        for ((kind, pick), count, delta, mins) in script {
            let m = markets[pick % markets.len()];
            let live: Vec<AllocationId> = p.live_spot().map(|a| a.id).collect();
            let picked = (!live.is_empty()).then(|| live[pick % live.len()]);
            let to = match kind {
                2 => Some(p.now() + SimDuration::from_mins(2)),
                3 => Some(p.now() + SimDuration::from_mins(mins)),
                4 => p.traces().get(&m).and_then(|t| t.points().iter().find(|(at, _)| *at > p.now())).map(|(t, _)| *t),
                5 => Some(p.now() + SimDuration::from_hours(24 * (1 + mins % 3))),
                _ => None,
            };
            match (kind, to) {
                (0 | 1, _) => {
                    let bid = p.spot_price(m).expect("registered") + delta;
                    if let Ok(grant) = p.request_spot(m, count, bid) {
                        granted.push((grant.id, m, bid));
                    }
                }
                (2..=5, Some(to)) => {
                    for (t, e) in p.advance_to(to).expect("forward") {
                        let (ProviderEvent::EvictionWarning { allocation, .. }
                        | ProviderEvent::LaunchFailed { allocation }) = e else {
                            continue;
                        };
                        let &(_, m, bid) = granted
                            .iter()
                            .find(|(id, _, _)| *id == allocation)
                            .expect("granted here");
                        prop_assert!(trace_price(&p, m, t) > bid);
                    }
                }
                (6, _) => {
                    if let Some(id) = picked {
                        p.terminate(id).expect("live allocation terminates");
                    }
                }
                (7, _) => {
                    if let Some(id) = picked {
                        p.revoke(id).expect("live allocation revokes");
                    }
                }
                _ => {}
            }
            let want: Vec<(MarketKey, u64)> = markets
                .iter()
                .map(|&m| (m, trace_price(&p, m, p.now()).to_bits()))
                .collect();
            let got: Vec<(MarketKey, u64)> =
                p.spot_prices().iter().map(|&(m, price)| (m, price.to_bits())).collect();
            prop_assert_eq!(&got, &want);
            for &(m, bits) in &want {
                prop_assert_eq!(p.spot_price(m).map(f64::to_bits), Ok(bits));
            }
        }
        for e in p.account().entries().iter().filter(|e| e.kind == LedgerKind::SpotHour) {
            let &(_, m, _) = granted
                .iter()
                .find(|(id, _, _)| *id == e.allocation)
                .expect("granted here");
            let price = trace_price(&p, m, e.time);
            prop_assert_eq!(e.amount.to_bits(), (price * f64::from(e.instances)).to_bits());
        }
        let unknown = MarketKey::new(catalog::c4_2xlarge(), Zone(3));
        prop_assert!(!markets.contains(&unknown));
        prop_assert_eq!(p.spot_price(unknown), Err(MarketError::UnknownMarket(unknown)));
    }

}

/// `unused_hour_credit` row by row: what a tenant walking away now has
/// paid for and not used.
#[test]
fn unused_hour_credit_table() {
    let min = SimDuration::from_mins;
    let od = market().instance_type().on_demand_price;
    // The price moves mid-hour: a credit prices the hour as billed.
    let trace = || {
        let mut set = TraceSet::new();
        set.insert(
            market(),
            PriceTrace::from_points(vec![
                (SimTime::EPOCH, 0.05),
                (SimTime::EPOCH + min(10), 0.08),
                (SimTime::EPOCH + min(150), 0.50),
            ])
            .expect("ordered points"),
        );
        CloudProvider::new(set)
    };
    let at = |p: &mut CloudProvider<'_>, m: u64| {
        p.advance_to(SimTime::EPOCH + min(m)).expect("forward");
    };

    // Spot, mid-hour: three quarters of the 0.05 hour, not of 0.08.
    let mut p = trace();
    let id = p.request_spot(market(), 2, 0.20).expect("granted").id;
    at(&mut p, 15);
    assert_eq!(p.unused_hour_credit(id), 0.05 * 2.0 * 0.75);

    // Spot, exactly on a boundary: the fresh hour is wholly unused.
    at(&mut p, 60);
    assert_eq!(p.unused_hour_credit(id), 0.08 * 2.0 * 1.0);

    // Spot, warned: still credits the rest of its paid hour.
    at(&mut p, 151);
    assert!(p
        .live_spot()
        .find(|a| a.id == id)
        .expect("still live")
        .is_warned());
    assert_eq!(p.unused_hour_credit(id), 0.08 * 2.0 * (29.0 / 60.0));

    // Spot, booting: nothing was charged, nothing is credited.
    let mut p = trace();
    p.set_fault_plan(MarketFaultPlan::new(1).with_boot_delay(min(10), min(10)));
    let id = p.request_spot(market(), 2, 0.20).expect("granted").id;
    at(&mut p, 5);
    assert!(p
        .live_spot()
        .find(|a| a.id == id)
        .expect("live")
        .is_booting());
    assert_eq!(p.unused_hour_credit(id), 0.0);

    // On-demand at its grant instant: one full hour; later, the rest.
    let mut p = trace();
    let id = p.request_on_demand(market(), 3).expect("granted");
    assert_eq!(p.unused_hour_credit(id), od * 3.0 * 1.0);
    at(&mut p, 75);
    assert_eq!(p.unused_hour_credit(id), od * 3.0 * (1.0 - 0.25));

    // Gone or never granted: nothing.
    p.terminate(id).expect("terminates");
    assert_eq!(p.unused_hour_credit(id), 0.0);
    assert_eq!(p.unused_hour_credit(AllocationId(99)), 0.0);
}
