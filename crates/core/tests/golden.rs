//! Golden fingerprints of two whole Proteus sessions.
//!
//! A session — market, BidBrain, elasticity controller, parameter
//! servers, workers — is a pure function of its configuration and the
//! calls made on it now that the training job runs on the discrete-event
//! core. Two fixed-history sessions are pinned here: a calm one (default
//! stage policy, no faults, no forecasting) and a churning one (volatile
//! market, provider faults, forecasting with pre-drains and Young's-rule
//! checkpoints).
//!
//! * Each runs twice; report and obs JSONL must be byte-identical, and
//!   their FNV-1a equals a constant recorded at the commit that moved
//!   the job onto the event core (the same in debug and release).
//! * The session's **economics** — bill, usage, allocations, evictions,
//!   refusals, alerts, pre-drains, checkpoints: every report field the
//!   training job cannot influence — equal strings **recorded on the
//!   parent commit**, where the job still ran on OS threads, as do the
//!   counts of market and BidBrain events on the timeline. The port
//!   changed how the job runs, not one decision around it.
//! * Every event-determined report field equals what the export records
//!   (`common::assert_report_matches_export`).

mod common;

use std::sync::Arc;

use proteus::market::{MarketFaultPlan, MarketModel};
use proteus::obs::Recorder;
use proteus::simtime::{SimDuration, SimTime};
use proteus::{Proteus, ProteusConfig, ProteusReport};
use proteus_bidbrain::ForecastConfig;

use common::MfJob;

const HOURS: u64 = 72;

/// The MF job every scenario trains.
const MF: MfJob = MfJob {
    rows: 60,
    cols: 40,
    rank: 4,
    observed: 1500,
    seed: 17,
};

fn config(churn: bool) -> ProteusConfig {
    let mut cfg = ProteusConfig {
        market_model: if churn {
            MarketModel::volatile()
        } else {
            MarketModel::calm()
        },
        ..ProteusConfig::default()
    };
    cfg.market_horizon = cfg.beta_training + SimDuration::from_hours(HOURS + 2);
    cfg.agile.seed = 2016;
    if churn {
        let start = SimTime::EPOCH + cfg.beta_training;
        let drought = start + SimDuration::from_hours(30);
        cfg.forecast = Some(ForecastConfig::default());
        cfg.market_faults = Some(
            MarketFaultPlan::new(5)
                .with_throttle(0.10, SimDuration::from_secs(60))
                .with_boot_delay(SimDuration::from_secs(30), SimDuration::from_mins(3))
                .with_infant_mortality(0.05, SimDuration::from_mins(30))
                .with_drought(drought, drought + SimDuration::from_hours(1), 0),
        );
    }
    cfg
}

/// Three market days with a few clocks of training after each.
fn session(churn: bool) -> (ProteusReport, String) {
    let rec = Arc::new(Recorder::new());
    let mut session =
        Proteus::launch_observed(MF.app(), MF.data(), config(churn), Arc::clone(&rec))
            .expect("launch");
    for day in 1..=HOURS / 24 {
        session.run_market_hours(24.0).expect("market day");
        session.wait_clock(5 * day).expect("training");
    }
    let report = session.finish().expect("finish");
    common::assert_report_matches_export(&report, &rec.timeline());
    (report, rec.to_jsonl())
}

/// The report with the two fields training decides blanked out.
fn economics(report: &ProteusReport) -> String {
    let fixed = ProteusReport {
        clocks: 0,
        final_objective: 0.0,
        ..report.clone()
    };
    format!("{fixed:?}")
}

/// How many timeline lines carry an event kind starting with `prefix`.
fn count_kind(jsonl: &str, prefix: &str) -> usize {
    let needle = format!("\"kind\":\"{prefix}");
    jsonl.lines().filter(|l| l.contains(&needle)).count()
}

fn fingerprint(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Golden {
    /// Recorded on the parent commit (thread core).
    economics: &'static str,
    market_events: usize,
    bid_events: usize,
    /// Recorded on this commit: FNV-1a of the full report and JSONL.
    fingerprint: u64,
}

fn check(churn: bool, golden: &Golden) {
    let (report, jsonl) = session(churn);
    let (again, jsonl_again) = session(churn);
    assert_eq!(
        format!("{report:?}"),
        format!("{again:?}"),
        "report repeats"
    );
    assert!(jsonl == jsonl_again, "obs JSONL repeats byte for byte");
    assert!(report.clocks >= 15 && report.final_objective.is_finite());
    assert!(count_kind(&jsonl, "agile.") > 0, "job events are recorded");

    assert_eq!(economics(&report), golden.economics);
    assert_eq!(count_kind(&jsonl, "market."), golden.market_events);
    assert_eq!(count_kind(&jsonl, "bid."), golden.bid_events);
    let got = fingerprint(&[&format!("{report:?}"), &jsonl]);
    assert_eq!(
        got, golden.fingerprint,
        "fingerprint is {got:#018x}; report {report:?}"
    );
}

#[test]
fn calm_session_golden() {
    check(false, &CALM);
}

#[test]
fn churn_session_golden() {
    check(true, &CHURN);
}

const CALM: Golden = Golden {
    economics: concat!(
        "ProteusReport { cost: 49.33208231762615, ",
        "market_time: SimDuration(259200000), ",
        "usage: UsageBreakdown { on_demand_hours: 72.0, ",
        "spot_paid_hours: 448.73333333333335, free_hours: 53.59743972222223 }, ",
        "evictions: 31, allocations: 33, clocks: 0, final_objective: 0.0, ",
        "refusals: 0, throttles: 0, partial_grants: 0, ",
        "degraded_time: SimDuration(0), fallback_on_demand: 0, ",
        "forecast_alerts: 0, pre_drains: 0, forecast_hits: 0, false_alerts: 0, ",
        "checkpoints: 0, reliable_failures: 0, restarts: 0, ",
        "work_lost_to_restart: 0 }",
    ),
    market_events: 298,
    bid_events: 295,
    fingerprint: 0x9d1e_8de8_d5f1_5c23,
};

const CHURN: Golden = Golden {
    economics: concat!(
        "ProteusReport { cost: 57.136806058686226, ",
        "market_time: SimDuration(259200000), ",
        "usage: UsageBreakdown { on_demand_hours: 72.66666666666666, ",
        "spot_paid_hours: 493.01439, free_hours: 199.27767416666666 }, ",
        "evictions: 112, allocations: 121, clocks: 0, final_objective: 0.0, ",
        "refusals: 0, throttles: 8, partial_grants: 0, ",
        "degraded_time: SimDuration(2400000), fallback_on_demand: 2, ",
        "forecast_alerts: 57, pre_drains: 24, forecast_hits: 9, ",
        "false_alerts: 15, checkpoints: 225, reliable_failures: 0, ",
        "restarts: 0, work_lost_to_restart: 0 }",
    ),
    market_events: 689,
    bid_events: 1_154,
    // Re-recorded when the export gained one `session.forecast_hit`
    // line per confirmed alert (9 here), then when a released or evicted
    // holding stopped clearing a trajectory a live sibling shares (6
    // times a run): the hazard history it keeps moves the checkpoint
    // cadence, not the bill, the counts or any market decision.
    fingerprint: 0x2b76_0b34_91c3_56a7,
};
