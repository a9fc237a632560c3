//! Chaos suite for the session-level eviction defense: the forecaster's
//! mistakes, billing neutrality, and the GCE short-warning regime.
//!
//! The agileml-side suite (`crates/agileml/tests/predrain.rs`) storms
//! the training plane's pre-drain path directly; this suite turns the
//! forecaster loose on a live market and checks the *session* contract:
//! whatever the forecaster gets wrong — alerts that never materialize,
//! evictions it never saw coming, storms of alerts on a volatile market
//! — the session keeps training or surfaces a typed [`ProteusError`],
//! and the defense never touches the bill (forecasting, pre-draining,
//! and adaptive checkpointing perform no market operations).

mod common;

use std::sync::Arc;

use proteus::bidbrain::ForecastConfig;
use proteus::obs::Recorder;
use proteus::simtime::SimDuration;
use proteus::{Proteus, ProteusConfig};

use common::MfJob;

/// Training clock every scenario must reach.
const TARGET: u64 = 10;

/// The MF job every scenario trains.
const MF: MfJob = MfJob {
    rows: 30,
    cols: 20,
    rank: 3,
    observed: 500,
    seed: 7,
};

/// On a volatile market (a spike every couple of hours) the forecaster
/// fires repeatedly — anticipatory alerts on spike onsets, crossing
/// alerts at worst — and every alert pre-drains live ActivePS state.
/// The session must absorb the storm of demotions plus the real
/// evictions behind them, and still converge, and its report must be
/// what its export records.
#[test]
fn alert_storm_on_volatile_market_converges() {
    let config = ProteusConfig {
        max_machines: 8,
        market_model: proteus::market::MarketModel::volatile(),
        forecast: Some(ForecastConfig::default()),
        ..ProteusConfig::default()
    };
    let rec = Arc::new(Recorder::new());
    let mut session =
        Proteus::launch_observed(MF.app(), MF.data(), config, Arc::clone(&rec)).expect("launch");
    session.run_market_hours(6.0).expect("market run");
    session.wait_clock(TARGET).expect("training progress");
    let report = session.finish().expect("finish");
    common::assert_report_matches_export(&report, &rec.timeline());
    assert!(
        report.forecast_alerts >= 1,
        "a volatile market must trip the forecaster: {report:?}"
    );
    assert!(
        report.final_objective < 0.15,
        "converged through the alert storm: {}",
        report.final_objective
    );
    // Adaptive checkpointing ran against the forecasted hazard.
    assert!(
        report.checkpoints >= 1,
        "no adaptive checkpoint: {report:?}"
    );
}

/// A warning-less death the forecaster never predicted (the price never
/// moved — the machine just died). The alert path stays silent and the
/// established rollback recovery carries the session.
#[test]
fn eviction_without_alert_falls_back_to_rollback() {
    let config = ProteusConfig {
        max_machines: 8,
        forecast: Some(ForecastConfig::default()),
        ..ProteusConfig::default()
    };
    let mut session = Proteus::launch(MF.app(), MF.data(), config).expect("launch");
    assert!(session.transient_machines() > 0);
    session.wait_clock(5).expect("warm-up");
    let rolled = session
        .inject_failure()
        .expect("failure path")
        .expect("an allocation was live");
    session
        .wait_clock(rolled + 10)
        .expect("post-recovery progress");
    session.run_market_hours(2.0).expect("market continues");
    let report = session.finish().expect("finish");
    assert!(report.evictions >= 1, "the kill must register: {report:?}");
    assert!(
        report.final_objective < 0.15,
        "converged after the unforecast eviction: {}",
        report.final_objective
    );
}

/// Billing neutrality: the whole defense — forecasting, pre-draining,
/// adaptive checkpointing — is passive on the market plane, so a run
/// with forecasting on must produce the *bit-identical* bill,
/// machine-hours, allocations, and evictions of the forecasting-off run,
/// false alerts included. The false-positive pre-drains cost migration
/// time inside the training plane and nothing anywhere else.
#[test]
fn false_alerts_never_change_the_bill() {
    let run = |forecast: Option<ForecastConfig>| {
        let config = ProteusConfig {
            max_machines: 8,
            forecast,
            ..ProteusConfig::default()
        };
        let mut session = Proteus::launch(MF.app(), MF.data(), config).expect("launch");
        session.run_market_hours(4.0).expect("market run");
        session.wait_clock(TARGET).expect("training progress");
        session.finish().expect("finish")
    };
    let off = run(None);
    let on = run(Some(ForecastConfig::default()));

    assert!(
        on.forecast_alerts >= 1,
        "the forecaster fired no alert — the comparison is vacuous: {on:?}"
    );
    assert!(
        on.false_alerts >= 1,
        "no alert aged out as a false positive: {on:?}"
    );
    assert_eq!(
        on.cost.to_bits(),
        off.cost.to_bits(),
        "forecasting changed the bill: {} vs {}",
        on.cost,
        off.cost
    );
    assert_eq!(on.usage, off.usage, "machine-hours diverged");
    assert_eq!(on.allocations, off.allocations, "acquisitions diverged");
    assert_eq!(on.evictions, off.evictions, "evictions diverged");
    // And the defense itself left zeros on the disabled run.
    assert_eq!(off.forecast_alerts, 0);
    assert_eq!(off.pre_drains, 0);
    assert_eq!(off.checkpoints, 0);
}

/// GCE gives thirty seconds of warning — less than a drain needs. With
/// the warning lead dialed down, warned evictions degrade to the
/// rollback path; the session must ride them out on a volatile market.
#[test]
fn gce_short_warning_lead_survives_volatile_market() {
    let config = ProteusConfig {
        max_machines: 8,
        market_model: proteus::market::MarketModel::volatile(),
        forecast: Some(ForecastConfig::default()),
        warning_lead: SimDuration::from_secs(30),
        ..ProteusConfig::default()
    };
    let mut session = Proteus::launch(MF.app(), MF.data(), config).expect("launch");
    session.run_market_hours(6.0).expect("market run");
    session.wait_clock(TARGET).expect("training progress");
    let report = session.finish().expect("finish");
    assert!(
        report.final_objective < 0.15,
        "converged under 30-second warnings: {}",
        report.final_objective
    );
}
