//! End-to-end test of the full Proteus session: market + BidBrain +
//! real elastic training.

mod common;

use proteus::{Proteus, ProteusConfig};

use common::MfJob;

/// The MF job every scenario trains.
const MF: MfJob = MfJob {
    rows: 40,
    cols: 30,
    rank: 4,
    observed: 800,
    seed: 42,
};

#[test]
fn full_session_trains_under_market_churn() {
    let config = ProteusConfig {
        max_machines: 8,
        ..ProteusConfig::default()
    };
    let mut session = Proteus::launch(MF.app(), MF.data(), config).expect("launch");

    // BidBrain should have bought spot capacity immediately: the spot
    // discount makes acquisition a clear cost-per-work win.
    assert!(
        session.transient_machines() > 0,
        "initial allocation expected"
    );

    // Run six simulated market hours while training proceeds; require
    // real training progress.
    session.run_market_hours(6.0).expect("market run");
    session.wait_clock(20).expect("training progress");

    // Training implies network traffic; the aggregate simnet counters
    // are visible at the session surface.
    assert!(session.net_stats().messages > 0, "no cluster traffic seen");

    let report = session.finish().expect("finish");
    assert!(report.clocks >= 20);
    assert!(report.cost > 0.0, "spot hours cost money");
    assert!(report.allocations >= 1);
    assert!(
        report.final_objective < 0.1,
        "MF converged under churn: {}",
        report.final_objective
    );
    // The bill must beat renting the same machine-hours on-demand.
    let od_equiv = report.on_demand_equivalent(0.209);
    assert!(
        report.cost < od_equiv,
        "spot exploitation saves money: {} vs {}",
        report.cost,
        od_equiv
    );
}

#[test]
fn session_survives_injected_failure() {
    use proteus::obs::Recorder;
    use std::sync::Arc;

    let config = ProteusConfig {
        max_machines: 8,
        ..ProteusConfig::default()
    };
    let rec = Arc::new(Recorder::new());
    let mut session =
        Proteus::launch_observed(MF.app(), MF.data(), config, Arc::clone(&rec)).expect("launch");
    assert!(session.transient_machines() > 0);
    session.wait_clock(5).expect("warm-up");

    // An allocation disappears with no usable warning.
    let seen = rec.timeline().len();
    let rolled = session
        .inject_failure()
        .expect("failure path")
        .expect("an allocation was live");

    // The provider took the machines, so the bill settles an eviction,
    // not a walk-away that forfeits the paid hour.
    let settled: Vec<&str> = rec.timeline().events[seen..]
        .iter()
        .map(|e| e.event.kind())
        .filter(|k| k.starts_with("market."))
        .collect();
    assert_eq!(settled, ["market.evicted"]);

    // Training recovers and keeps converging.
    session
        .wait_clock(rolled + 10)
        .expect("post-recovery progress");
    session.run_market_hours(2.0).expect("market continues");
    let report = session.finish().expect("finish");
    assert!(report.evictions >= 1);
    assert!(
        report.final_objective < 0.15,
        "converged after rollback recovery: {}",
        report.final_objective
    );
    common::assert_report_matches_export(&report, &rec.timeline());
}

/// A session always launches on its reliable machines alone and buys
/// transient capacity afterwards, so a forced serving stage meets "no
/// transient machine" on every launch: the job starts in stage 1 and
/// takes up the forced stage with the first allocation (the controller
/// used to panic placing ActivePSs on zero machines).
#[test]
fn session_with_a_forced_serving_stage_launches_and_runs() {
    use proteus::agileml::Stage;

    let mut config = ProteusConfig {
        max_machines: 8,
        ..ProteusConfig::default()
    };
    config.agile.force_stage = Some(Stage::Stage2);
    let mut session = Proteus::launch(MF.app(), MF.data(), config).expect("launch");
    assert!(session.transient_machines() > 0);
    session.run_market_hours(6.0).expect("market run");
    session.wait_clock(10).expect("training progress");
    let report = session.finish().expect("finish");
    assert!(report.clocks >= 10);
}

#[test]
fn session_rejects_invalid_config() {
    let bad = ProteusConfig {
        reliable_machines: 0,
        ..ProteusConfig::default()
    };
    assert!(Proteus::launch(MF.app(), MF.data(), bad).is_err());
}

/// An observed session puts every subsystem on one timeline: market
/// grants and billing, BidBrain's Eq. 4 candidate rankings, AgileML's
/// elasticity events, and the session state machine — with monotone
/// sim-time stamps, exportable as JSONL.
#[test]
fn observed_session_records_every_subsystem() {
    use proteus::obs::Recorder;
    use std::sync::Arc;

    let config = ProteusConfig {
        max_machines: 8,
        ..ProteusConfig::default()
    };
    let rec = Arc::new(Recorder::new());
    let mut session =
        Proteus::launch_observed(MF.app(), MF.data(), config, Arc::clone(&rec)).expect("launch");
    session.run_market_hours(2.0).expect("market run");
    session.wait_clock(10).expect("training progress");
    // Drain pending job events onto the timeline before finishing.
    let _ = session.job().events();
    let report = session.finish().expect("finish");

    let tl = rec.timeline();
    assert!(tl.count("market.") > 0, "no market events");
    assert!(tl.count("bid.") > 0, "no BidBrain events");
    assert!(tl.count("agile.") > 0, "no AgileML events");
    assert!(tl.count("session.launched") == 1, "no session launch");
    assert!(tl.count("session.finished") == 1, "no session finish");
    assert!(tl.is_monotone(), "timeline stamps must be monotone");

    // The export serializes every timeline record as one JSONL line.
    let jsonl = rec.to_jsonl();
    assert_eq!(jsonl.lines().count(), tl.len());
    assert!(jsonl.lines().all(|l| l.starts_with("{\"t_ms\":")));

    common::assert_report_matches_export(&report, &tl);
}
