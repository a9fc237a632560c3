//! Seed-deterministic chaos suite for the *market side* of a Proteus
//! session.
//!
//! The AgileML chaos suite (`crates/agileml/tests/chaos.rs`) storms the
//! training plane; this suite storms the provider: capacity droughts
//! that refuse every spot request, API throttling, multi-minute boot
//! delays, and launch-then-die instances. The contract under every
//! regime is the same — the session either keeps training (the reliable
//! tier guarantees forward progress) or surfaces a typed
//! [`ProteusError`]; it never panics and never wedges past a driver
//! timeout.
//!
//! Each run prints `chaos: scenario=<name> seed=<seed>` *before* doing
//! anything, so a CI failure replays from the printed seed alone:
//! `PROTEUS_CHAOS_SEEDS=<seed> cargo test -p proteus --test
//! market_chaos <name>`. `PROTEUS_CHAOS_FULL=1` widens the sweep. Every
//! regime records its session, and its report must equal what its
//! export says field by field.

mod common;

use std::sync::Arc;

use proteus::market::MarketFaultPlan;
use proteus::obs::Recorder;
use proteus::simtime::{SimDuration, SimTime};
use proteus::{Proteus, ProteusConfig, ProteusError, ProteusReport};
use proteus_mlapps::mf::MatrixFactorization;

use common::MfJob;

/// Training clock every scenario must reach — modest, because a
/// drought-starved session trains on the reliable tier alone.
const TARGET: u64 = 10;

/// The MF job every scenario trains.
const MF: MfJob = MfJob {
    rows: 30,
    cols: 20,
    rank: 3,
    observed: 500,
    seed: 7,
};

/// Session shape shared by every scenario: laptop-sized cluster, a
/// short watchdog window and backoff cap so wedge → degrade → recover
/// all fits inside a two-hour market run.
fn chaos_config(plan: MarketFaultPlan) -> ProteusConfig {
    ProteusConfig {
        max_machines: 8,
        market_faults: Some(plan),
        watchdog_window: SimDuration::from_mins(10),
        backoff_base: SimDuration::from_mins(2),
        backoff_cap: SimDuration::from_mins(10),
        ..ProteusConfig::default()
    }
}

/// Seeds to sweep; the seed feeds the provider's fault-plan RNG.
fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("PROTEUS_CHAOS_SEEDS") {
        return s.split(',').filter_map(|t| t.trim().parse().ok()).collect();
    }
    if std::env::var("PROTEUS_CHAOS_FULL").is_ok() {
        return vec![3, 5, 7, 11, 13, 17, 19, 23];
    }
    vec![3, 11]
}

/// A recorded session under `plan`, with its recorder.
fn launch(
    plan: MarketFaultPlan,
) -> Result<(Proteus<MatrixFactorization>, Arc<Recorder>), ProteusError> {
    let rec = Arc::new(Recorder::new());
    let session =
        Proteus::launch_observed(MF.app(), MF.data(), chaos_config(plan), Arc::clone(&rec))?;
    Ok((session, rec))
}

/// Runs `scenario` across the seed sweep. Every market regime leaves
/// the reliable tier untouched, so recovery is always possible: a typed
/// error is a failure here, a panic doubly so.
fn sweep(
    name: &str,
    scenario: impl Fn(u64) -> Result<(ProteusReport, Arc<Recorder>), ProteusError>,
) {
    for seed in seeds() {
        println!("chaos: scenario={name} seed={seed}");
        let (report, rec) = match scenario(seed) {
            Ok(r) => r,
            Err(e) => panic!("chaos: scenario={name} seed={seed}: expected recovery, got: {e}"),
        };
        common::assert_report_matches_export(&report, &rec.timeline());
        assert!(
            report.clocks >= TARGET,
            "chaos: scenario={name} seed={seed}: trained only {} clocks",
            report.clocks
        );
        assert!(
            report.final_objective.is_finite() && report.final_objective < 0.5,
            "chaos: scenario={name} seed={seed}: objective {} did not converge",
            report.final_objective
        );
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Total capacity drought for the first hour: every spot request is
/// refused, the backoff ladder climbs, the watchdog degrades the loop
/// onto the reliable tier plus an on-demand fallback machine, and when
/// the drought lifts a re-probe reacquires spot capacity.
fn capacity_drought(seed: u64) -> Result<(ProteusReport, Arc<Recorder>), ProteusError> {
    // The job starts after the β-training window; anchor the drought
    // there so it covers the session's first market hour.
    let start = SimTime::EPOCH + ProteusConfig::default().beta_training;
    let plan =
        MarketFaultPlan::new(seed).with_drought(start, start + SimDuration::from_hours(1), 0);
    let (mut session, rec) = launch(plan)?;
    assert_eq!(
        session.transient_machines(),
        0,
        "a total drought must refuse the launch-time sweep"
    );
    session.run_market_hours(2.0)?;
    session.wait_clock(TARGET)?;
    let report = session.finish()?;
    assert!(report.refusals >= 1, "no refusal recorded: {report:?}");
    assert!(
        report.degraded_time > SimDuration::ZERO,
        "the watchdog never degraded: {report:?}"
    );
    assert!(
        report.fallback_on_demand >= 1,
        "degraded mode provisioned no fallback: {report:?}"
    );
    assert!(
        report.allocations >= 1,
        "the sweep never recovered after the drought: {report:?}"
    );
    // The degraded episode is on the timeline, and it closed.
    let tl = rec.timeline();
    assert!(tl.count("session.degraded") >= 1, "no degraded event");
    assert!(tl.count("session.restored") >= 1, "no restore event");
    assert!(tl.is_monotone(), "timeline stamps must be monotone");
    Ok((report, rec))
}

/// Heavy API throttling for the whole run: three in four spot requests
/// bounce with `RequestLimitExceeded`. The loop honors the advertised
/// retry delay; either a grant lands between bursts or — on seeds where
/// every draw bounces — the watchdog falls back to on-demand capacity.
fn throttle_burst(seed: u64) -> Result<(ProteusReport, Arc<Recorder>), ProteusError> {
    let plan = MarketFaultPlan::new(seed).with_throttle(0.75, SimDuration::from_mins(5));
    let (mut session, rec) = launch(plan)?;
    session.run_market_hours(2.0)?;
    session.wait_clock(TARGET)?;
    let report = session.finish()?;
    assert!(report.throttles >= 1, "no throttle recorded: {report:?}");
    assert!(
        report.allocations >= 1 || report.fallback_on_demand >= 1,
        "neither a grant nor the on-demand fallback landed: {report:?}"
    );
    Ok((report, rec))
}

/// Every launch takes three to ten minutes to boot. Booting instances
/// must not be handed to the trainer, double-requested against, or
/// billed before they come up.
fn slow_boot(seed: u64) -> Result<(ProteusReport, Arc<Recorder>), ProteusError> {
    let plan = MarketFaultPlan::new(seed)
        .with_boot_delay(SimDuration::from_mins(3), SimDuration::from_mins(10));
    let (mut session, rec) = launch(plan)?;
    session.run_market_hours(2.0)?;
    session.wait_clock(TARGET)?;
    let report = session.finish()?;
    assert!(report.allocations >= 1, "no allocation landed: {report:?}");
    assert!(
        report.cost > 0.0,
        "launched spot hours must bill: {report:?}"
    );
    Ok((report, rec))
}

/// Launch-then-die: every grant is fated to die — warning-less, hour
/// refunded — within twenty minutes of coming up. The session must
/// absorb the repeated rollback recoveries and keep converging on the
/// reliable tier between corpses.
fn launch_then_die(seed: u64) -> Result<(ProteusReport, Arc<Recorder>), ProteusError> {
    let plan = MarketFaultPlan::new(seed).with_infant_mortality(1.0, SimDuration::from_mins(20));
    let (mut session, rec) = launch(plan)?;
    session.run_market_hours(2.0)?;
    session.wait_clock(TARGET)?;
    let report = session.finish()?;
    assert!(report.allocations >= 1, "no allocation landed: {report:?}");
    assert!(
        report.evictions >= 1,
        "every grant was doomed, yet none died: {report:?}"
    );
    Ok((report, rec))
}

/// A drought that outlasts the session: the watchdog degrades and never
/// restores, so the report's degraded time is the episode still open at
/// `finish` — from the degrade to the end of the market run.
#[test]
fn drought_past_the_last_step_counts_the_open_episode() {
    let start = SimTime::EPOCH + ProteusConfig::default().beta_training;
    let plan = MarketFaultPlan::new(3).with_drought(start, start + SimDuration::from_hours(4), 0);
    let (mut session, rec) = launch(plan).expect("launch");
    session.run_market_hours(2.0).expect("market run");
    session
        .wait_clock(TARGET)
        .expect("training on the reliable tier");
    let report = session.finish().expect("finish");

    let tl = rec.timeline();
    let degraded = tl.first("session.degraded").expect("the watchdog degraded");
    assert_eq!(tl.count("session.restored"), 0, "the drought never lifts");
    let finished = tl.first("session.finished").expect("finished");
    assert!(degraded.t < finished.t);
    assert_eq!(report.degraded_time, finished.t.since(degraded.t));
    common::assert_report_matches_export(&report, &tl);
}

/// In a drought with no spot holding, the on-demand fallback holds the
/// only transient machines. A chaos kill takes spot holdings alone, so
/// it finds no victim and the fallback keeps computing.
#[test]
fn injected_failure_spares_the_on_demand_fallback() {
    let start = SimTime::EPOCH + ProteusConfig::default().beta_training;
    let plan = MarketFaultPlan::new(3).with_drought(start, start + SimDuration::from_hours(4), 0);
    let (mut session, rec) = launch(plan).expect("launch");
    session.run_market_hours(1.0).expect("market run");
    let fallback = session.transient_machines();
    assert!(fallback > 0, "the watchdog provisioned no fallback");

    assert_eq!(session.inject_failure().expect("failure path"), None);
    assert_eq!(session.transient_machines(), fallback);

    session.run_market_hours(1.0).expect("market run");
    session
        .wait_clock(TARGET)
        .expect("training on the fallback");
    let report = session.finish().expect("finish");
    assert_eq!(report.evictions, 0, "nothing was evicted: {report:?}");
    common::assert_report_matches_export(&report, &rec.timeline());
}

// ---------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------

#[test]
fn capacity_drought_degrades_then_recovers() {
    sweep("capacity_drought", capacity_drought);
}

#[test]
fn throttle_burst_backs_off_and_lands_grants() {
    sweep("throttle_burst", throttle_burst);
}

#[test]
fn slow_boot_defers_integration_and_billing() {
    sweep("slow_boot", slow_boot);
}

#[test]
fn launch_then_die_rolls_back_and_converges() {
    sweep("launch_then_die", launch_then_die);
}

/// Misconfigured resilience knobs surface as typed config errors, not
/// panics deep in the loop.
#[test]
fn resilience_config_is_validated() {
    let bad = ProteusConfig {
        watchdog_window: SimDuration::from_secs(30),
        ..ProteusConfig::default()
    };
    let err = match Proteus::launch(MF.app(), MF.data(), bad) {
        Err(e) => e,
        Ok(_) => panic!("sub-step watchdog must be rejected"),
    };
    assert!(matches!(err, ProteusError::Config(_)), "got: {err:?}");

    let bad = ProteusConfig {
        backoff_base: SimDuration::from_mins(40),
        backoff_cap: SimDuration::from_mins(10),
        ..ProteusConfig::default()
    };
    let err = match Proteus::launch(MF.app(), MF.data(), bad) {
        Err(e) => e,
        Ok(_) => panic!("inverted backoff must be rejected"),
    };
    assert!(matches!(err, ProteusError::Config(_)), "got: {err:?}");
}
