//! Golden fingerprint of one faulted sweep.
//!
//! The scheduler's per-round passes iterate an index of admitted jobs
//! and the sweep driver visits only jobs that changed state; both must
//! reproduce what full scans in ascending job-id order produce. This
//! sweep — 600 trials over the eight paper markets, under a capacity
//! drought (so victim valuation and preemption run) and boot delays —
//! pins the whole result: the `SweepOutcome` and the obs JSONL are
//! hashed together and compared to a constant recorded at the commit
//! that still did the full scans. Two fixes meant to move it have
//! re-recorded it since: a trial evicted in the step that carried it
//! past its rung completes instead of relaunching, and a failed launch
//! no longer holds its job back for the boot delay plus σ.

use std::sync::Arc;

use proteus_bidbrain::BetaEstimator;
use proteus_costsim::StudyExecutor;
use proteus_fleet::{run_sweep, run_sweep_on, FleetConfig, FleetSim, JobId, SweepConfig};
use proteus_market::{
    catalog, MarketFaultPlan, MarketKey, MarketModel, PriceTrace, TraceGenerator, TraceSet, Zone,
};
use proteus_obs::Recorder;
use proteus_simtime::{SimDuration, SimTime};

/// FNV-1a over the bytes of `parts`, in order.
fn fingerprint(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn faulted_sweep_matches_the_full_scan_fingerprint() {
    let markets = catalog::paper_markets();
    let traces = TraceGenerator::new(41, MarketModel::default())
        .generate_set(&markets, SimDuration::from_hours(64));
    let mut beta = BetaEstimator::new();
    for k in &markets {
        let trace = traces.get(k).expect("generated");
        beta.train(
            *k,
            trace,
            SimTime::EPOCH,
            SimTime::from_hours(12),
            SimDuration::from_mins(30),
            &BetaEstimator::default_deltas(),
        );
    }
    let mut fleet = FleetSim::new(&traces, &beta, FleetConfig::paper_defaults(markets));
    let rec = Arc::new(Recorder::new());
    fleet.set_recorder(Arc::clone(&rec));
    fleet.set_fault_plan(
        MarketFaultPlan::new(29)
            .with_drought(SimTime::from_hours(1), SimTime::from_hours(4), 6)
            .with_drought(SimTime::from_hours(6), SimTime::from_hours(8), 2)
            .with_boot_delay(SimDuration::from_secs(30), SimDuration::from_mins(4)),
    );
    let cfg = SweepConfig {
        trials: 600,
        rungs: vec![1.0, 2.0, 4.0],
        submit_every: SimDuration::from_secs(60),
        horizon: SimDuration::from_hours(48),
        seed: 17,
        ..SweepConfig::default()
    };
    let (out, _) = run_sweep_on(fleet, &cfg, &StudyExecutor::serial()).expect("sweep");
    assert!(
        out.fleet.preemptions > 0 && out.fleet.evictions > 0 && out.fleet.completed > 0,
        "the scenario must exercise preemption, eviction and completion: {} / {} / {}",
        out.fleet.preemptions,
        out.fleet.evictions,
        out.fleet.completed
    );
    let got = fingerprint(&[&format!("{out:?}"), &rec.to_jsonl()]);
    assert_eq!(got, 0xe43d_e419_328b_4426, "fingerprint {got:#018x}");
}

/// Rungs closer together than one step's accrual (about 1.16 core-hours
/// here): a trial crosses all three in the step that completes the
/// first, so promotion never reopens it — it stays `Completed` and must
/// still climb one rung per round. Expected values recorded from the
/// driver that scanned every trial every round.
#[test]
fn a_trial_that_overshoots_the_next_rung_still_climbs_it() {
    let key = MarketKey::new(catalog::c4_xlarge(), Zone(0));
    let mut traces = TraceSet::new();
    traces.insert(
        key,
        PriceTrace::from_points(vec![(SimTime::EPOCH, 0.05)]).expect("trace"),
    );
    let cfg = SweepConfig {
        trials: 8,
        rungs: vec![1.0, 1.001, 1.002],
        seed: 11,
        horizon: SimDuration::from_hours(12),
        ..SweepConfig::default()
    };
    let (out, _) = run_sweep(
        &traces,
        &BetaEstimator::new(),
        FleetConfig::paper_defaults(vec![key]),
        &cfg,
        &StudyExecutor::serial(),
    )
    .expect("sweep");
    let rungs: Vec<usize> = out.trials.iter().map(|t| t.rungs_completed).collect();
    assert_eq!(rungs, [3, 3, 3, 2, 1, 3, 3, 1]);
    assert_eq!(out.best, Some(JobId(5)));
    assert_eq!(out.fleet.scheduling_rounds, 13);
}
