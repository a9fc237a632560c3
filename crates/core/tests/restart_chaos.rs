//! Session-level restart chaos: the whole reliable tier — controller
//! host included — vanishes, and the session must come back from its
//! last durable checkpoint.
//!
//! The contract under every schedule:
//!
//! * **100% reliable loss** tears the job down and relaunches from the
//!   last durable checkpoint (or from scratch if none was ever taken);
//!   the restarted job's clock resumes at the checkpointed clock and
//!   only moves forward — the consistent clock is monotone
//!   non-decreasing across restarts;
//! * **strict-subset loss** is handled in-job wherever the controller
//!   can prove repair safe, without burning a restart;
//! * every path either converges or surfaces a typed [`ProteusError`] —
//!   never a panic, and the report's `reliable_failures` / `restarts` /
//!   `work_lost_to_restart` counters account for what happened.

mod common;

use std::sync::Arc;

use proteus::bidbrain::ForecastConfig;
use proteus::ReliableRecovery;
use proteus::{Proteus, ProteusConfig};
use proteus_obs::Recorder;

use common::MfJob;

/// The MF job every scenario trains.
const MF: MfJob = MfJob {
    rows: 30,
    cols: 20,
    rank: 3,
    observed: 500,
    seed: 7,
};

fn cfg(reliable: u32) -> ProteusConfig {
    ProteusConfig {
        max_machines: 8,
        reliable_machines: reliable,
        ..ProteusConfig::default()
    }
}

/// The acceptance scenario: checkpoint, lose the entire reliable tier
/// (controller included), restart, and finish training — with the
/// resumed clock exactly the checkpointed clock and all progress
/// monotone from there.
#[test]
fn total_reliable_loss_restarts_from_last_checkpoint() {
    let rec = Arc::new(Recorder::new());
    let mut session =
        Proteus::launch_observed(MF.app(), MF.data(), cfg(2), Arc::clone(&rec)).expect("launch");
    session.run_market_hours(1.0).expect("market warm-up");
    session.wait_clock(8).expect("pre-checkpoint progress");
    let ck = session.checkpoint_now().expect("forced checkpoint");
    assert!(ck >= 8, "checkpoint clock tracks training progress: {ck}");

    // Make progress past the checkpoint so the restart has work to lose.
    session
        .wait_clock(ck + 5)
        .expect("post-checkpoint progress");
    let resumed = session
        .inject_total_reliable_failure()
        .expect("restart path");
    assert_eq!(
        resumed, ck,
        "the session must resume from the checkpointed clock"
    );

    // The restarted incarnation only moves forward from the checkpoint.
    let st = session.job().status().expect("restarted controller status");
    assert!(
        st.min_clock >= resumed,
        "clock regressed across restart: {} < {resumed}",
        st.min_clock
    );
    session
        .wait_clock(resumed + 10)
        .expect("post-restart progress");
    session.run_market_hours(1.0).expect("market resumes");

    let report = session.finish().expect("finish");
    assert_eq!(report.reliable_failures, 1, "one injected loss: {report:?}");
    assert_eq!(report.restarts, 1, "one restart: {report:?}");
    assert!(
        report.work_lost_to_restart >= 5,
        "progress past the checkpoint was forfeited: {report:?}"
    );
    assert!(
        report.clocks >= resumed + 10,
        "training finished past the restart point: {report:?}"
    );
    assert!(
        report.final_objective < 0.15,
        "converged after the restart: {}",
        report.final_objective
    );
    let timeline = rec.timeline();
    assert_eq!(timeline.count("session.checkpoint_restored"), 1);
    assert_eq!(timeline.count("session.reliable_lost"), 1);
    common::assert_report_matches_export(&report, &timeline);
}

/// Total loss before any checkpoint was ever taken: the restart falls
/// back to a from-scratch relaunch (clock 0) and every completed clock
/// is accounted as lost work. The session still converges.
#[test]
fn total_loss_without_checkpoint_restarts_from_scratch() {
    let mut session = Proteus::launch(MF.app(), MF.data(), cfg(2)).expect("launch");
    session.run_market_hours(0.5).expect("market warm-up");
    session.wait_clock(6).expect("progress");
    let resumed = session
        .inject_total_reliable_failure()
        .expect("restart path");
    assert_eq!(resumed, 0, "no checkpoint means a from-scratch restart");
    session.wait_clock(10).expect("post-restart progress");
    let report = session.finish().expect("finish");
    assert_eq!(report.restarts, 1);
    assert!(
        report.work_lost_to_restart >= 6,
        "all pre-restart progress was lost: {report:?}"
    );
    assert!(report.final_objective < 0.15);
}

/// A strict-subset reliable loss goes through the controller first: if
/// the protocol state allows in-job repair the session spends no
/// restart; if not, the typed fault escalates to a checkpoint restart.
/// Either way the session converges and the counters agree with the
/// outcome.
#[test]
fn partial_reliable_loss_prefers_in_job_repair() {
    let mut session = Proteus::launch(MF.app(), MF.data(), cfg(3)).expect("launch");
    session.run_market_hours(0.5).expect("market warm-up");
    session.wait_clock(6).expect("progress");
    session.checkpoint_now().expect("safety checkpoint");
    let outcome = session.inject_reliable_failure(1).expect("injection");
    assert_ne!(outcome, ReliableRecovery::NoOp, "a victim existed");
    session.wait_clock(12).expect("post-recovery progress");
    let report = session.finish().expect("finish");
    assert_eq!(report.reliable_failures, 1);
    match outcome {
        ReliableRecovery::Repaired => {
            assert_eq!(report.restarts, 0, "repair must not burn a restart")
        }
        ReliableRecovery::Restarted => assert_eq!(report.restarts, 1),
        ReliableRecovery::NoOp => unreachable!(),
    }
    assert!(report.final_objective < 0.15);
}

/// Back-to-back disasters: a second total loss lands right after the
/// first restart, before any new checkpoint. Both restarts resume from
/// the same checkpoint and the clock still never regresses below it.
#[test]
fn repeated_total_loss_keeps_clock_monotone() {
    let mut session = Proteus::launch(MF.app(), MF.data(), cfg(2)).expect("launch");
    session.run_market_hours(0.5).expect("market warm-up");
    session.wait_clock(5).expect("progress");
    let ck = session.checkpoint_now().expect("checkpoint");
    let first = session.inject_total_reliable_failure().expect("restart 1");
    assert_eq!(first, ck);
    let second = session.inject_total_reliable_failure().expect("restart 2");
    assert_eq!(
        second, ck,
        "no newer checkpoint: the second restart resumes from the same one"
    );
    session.wait_clock(ck + 8).expect("post-restart progress");
    let report = session.finish().expect("finish");
    assert_eq!(report.restarts, 2);
    assert_eq!(report.reliable_failures, 2);
    assert!(
        report.clocks >= ck + 8,
        "progress is monotone across both restarts: {report:?}"
    );
    assert!(report.final_objective < 0.15);
}

/// Fault-free runs stay bit-identical with durable checkpointing
/// enabled: the checkpoint path is pure sim-time plus in-memory
/// serialization, so two identical runs bill identically — and a
/// checkpointing run bills exactly what a checkpointing-free run bills.
#[test]
fn fault_free_checkpointing_is_deterministic_and_billing_neutral() {
    let run = |forecast: Option<ForecastConfig>| {
        let config = ProteusConfig {
            max_machines: 8,
            reliable_machines: 2,
            forecast,
            ..ProteusConfig::default()
        };
        let mut session = Proteus::launch(MF.app(), MF.data(), config).expect("launch");
        session.run_market_hours(4.0).expect("market run");
        session.wait_clock(10).expect("progress");
        session.finish().expect("finish")
    };
    let a = run(Some(ForecastConfig::default()));
    let b = run(Some(ForecastConfig::default()));
    assert!(a.checkpoints >= 1, "no adaptive checkpoint: {a:?}");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "bill diverged");
    assert_eq!(a.usage, b.usage, "machine-hours diverged");
    assert_eq!(a.allocations, b.allocations);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.checkpoints, b.checkpoints, "checkpoint schedule diverged");

    let off = run(None);
    assert_eq!(
        a.cost.to_bits(),
        off.cost.to_bits(),
        "durable checkpointing changed the bill"
    );
    assert_eq!(a.usage, off.usage);
    assert_eq!(off.checkpoints, 0);
}

/// The kill lands *between* a checkpoint and the next decision step —
/// the checkpoint just taken must be the restart point, proving saves
/// are atomic with respect to disasters (a half-written checkpoint can
/// never be restored because the store swaps whole encoded snapshots).
#[test]
fn checkpoint_interrupted_by_kill_restores_cleanly() {
    let mut session = Proteus::launch(MF.app(), MF.data(), cfg(2)).expect("launch");
    session.run_market_hours(0.5).expect("market warm-up");
    session.wait_clock(6).expect("progress");
    let ck = session.checkpoint_now().expect("checkpoint");
    // No intervening progress wait: the disaster races whatever was in
    // flight when the snapshot was cut.
    let resumed = session.inject_total_reliable_failure().expect("restart");
    assert_eq!(resumed, ck);
    session.wait_clock(ck + 5).expect("post-restart progress");
    let report = session.finish().expect("finish");
    assert_eq!(report.restarts, 1);
    assert!(report.final_objective < 0.15);
}
