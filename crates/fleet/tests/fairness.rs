//! Starvation regression: aging must bound every tier's queue wait.
//!
//! The weighted fair queue is allowed to *delay* a low-priority gang
//! indefinitely often, but never to starve it: once a gang has waited
//! [`MAX_WAIT`] scheduling rounds it is served
//! ahead of everything, with preemption rights that ignore the value
//! margin. This test pins that bound under the worst case — a
//! capacity-capped market under sustained high-priority arrivals.

use proteus_bidbrain::{BetaEstimator, DECISION_STEP};
use proteus_costsim::StudyExecutor;
use proteus_fleet::{FleetConfig, FleetJobSpec, FleetSim, JobState};
use proteus_market::{catalog, MarketFaultPlan, MarketKey, PriceTrace, TraceSet, Zone};
use proteus_simtime::{SimDuration, SimTime};

/// The scheduler's starvation bound (`MAX_WAIT_ROUNDS` in
/// `src/scheduler.rs`).
const MAX_WAIT: u32 = 16;

fn key() -> MarketKey {
    MarketKey::new(catalog::c4_xlarge(), Zone(0))
}

/// A flat calm price: the only scheduling pressure is the capacity cap,
/// so the test isolates fairness from market noise.
fn traces() -> TraceSet {
    let mut set = TraceSet::new();
    set.insert(
        key(),
        PriceTrace::from_points(vec![(SimTime::EPOCH, 0.05)]).expect("trace"),
    );
    set
}

#[test]
fn low_tier_gang_launches_within_the_starvation_bound() {
    let traces = traces();
    let beta = BetaEstimator::new();
    let cfg = FleetConfig::paper_defaults(vec![key()]);
    let max_wait = MAX_WAIT;
    let step = DECISION_STEP;
    let mut fleet = FleetSim::new(&traces, &beta, cfg);
    // Cap the market at exactly one 2-wide gang, forever.
    fleet.set_fault_plan(MarketFaultPlan::new(7).with_drought(
        SimTime::EPOCH,
        SimTime::EPOCH + SimDuration::from_hours(1000),
        2,
    ));

    // The victim-to-be: a lowest-priority gang submitted first.
    let low = fleet.submit(FleetJobSpec::trial(50.0, 2, 3), SimTime::EPOCH);
    // Sustained tier-0 pressure: a fresh high-priority long job every
    // scheduling round, each happy to hold the whole market for hours.
    let rounds = max_wait + 8;
    for i in 0..u64::from(rounds) {
        fleet.submit(FleetJobSpec::trial(50.0, 2, 0), SimTime::EPOCH + step * i);
    }

    let exec = StudyExecutor::serial();
    let horizon = SimTime::EPOCH + step * u64::from(rounds + 4);
    fleet.run_to(horizon, &exec).expect("run");
    assert!(
        matches!(
            fleet.state(low),
            Some(JobState::Running | JobState::Waiting)
        ),
        "low job in unexpected state {:?}",
        fleet.state(low)
    );
    let (out, _) = fleet.finish();
    let low_job = &out.jobs[low.0 as usize];
    assert!(
        low_job.launches >= 1,
        "tier-3 gang never launched under tier-0 pressure: {low_job:?}"
    );
    // The bound itself: the starved gang was served within a small slack
    // of the starvation threshold, not "eventually".
    assert!(
        low_job.max_rounds_waited <= max_wait + 2,
        "tier-3 gang waited {} rounds (bound {})",
        low_job.max_rounds_waited,
        max_wait + 2
    );
    // And the launch was real work, not an accounting fiction: the
    // preempted tier-0 victim settled like an eviction.
    assert!(out.preemptions >= 1, "starvation never preempted: {out:?}");
}
