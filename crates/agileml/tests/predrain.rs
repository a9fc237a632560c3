//! Chaos and regression suite for the proactive eviction defense:
//! forecast-driven pre-drain demotions, their failure modes when the
//! forecast is wrong, and the GCE-style short-warning degradation.
//!
//! The contract mirrors `chaos.rs`: every scenario either converges to
//! the fault-free objective or surfaces a typed [`JobError`] — never a
//! panic, never a wedge past a driver timeout. A *false-positive*
//! pre-drain (alert, then no eviction) must cost only the migration:
//! membership, clocks, and the committed model trajectory are untouched.
//!
//! The job, the seed sweep and the fault-free oracle are `common`'s.

mod common;

use proteus_agileml::ModelSnapshot;
use proteus_agileml::{AgileConfig, AgileMlJob, JobError, JobEvent, Stage};
use proteus_simnet::NodeId;

use common::{chaos_cfg, mf_app, mf_data, sweep, TARGET};

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// The happy path: an alert demotes one ActivePS host. Its partitions
/// move to a surviving host, the node stays a worker with its clock, and
/// training never sees an eviction.
fn predrain_demotes_one(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 3)?;
    job.wait_clock(6)?;
    let before = job.status()?;
    job.pre_drain(&[NodeId(2)])?;
    let st = job.status()?;
    assert_eq!(
        st.transient, before.transient,
        "pre-drain must not shrink membership"
    );
    assert_eq!(
        st.active_ps,
        before.active_ps - 1,
        "the suspect's ActivePS role must be gone"
    );
    assert_eq!(st.stage, Stage::Stage2, "a demotion is not a stage change");
    assert!(
        job.events()
            .iter()
            .all(|e| !matches!(e, JobEvent::NodesEvicted { .. })),
        "a pre-drain must not register as an eviction"
    );
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// Alert storm: every ActivePS host is suspected at once, so there is no
/// un-suspected destination and the partitions drain to their BackupPS
/// copies on the reliable tier — the established eviction fallback, but
/// with every suspect still alive and working.
fn predrain_storm_all_actives(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 3)?;
    job.wait_clock(6)?;
    job.pre_drain(&[NodeId(2), NodeId(3), NodeId(4)])?;
    let st = job.status()?;
    assert_eq!(st.active_ps, 0, "every ActivePS role drained to backup");
    assert_eq!(st.transient, 3, "all suspects keep computing as workers");
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// Alert lands mid-migration: a warned drain is in flight when the
/// pre-drain command arrives, so the controller queues the demotion
/// behind the busy transition instead of interleaving topology edits.
fn alert_mid_migration(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 4)?;
    job.wait_clock(6)?;
    // Provider-style warning with no driver wait: the drain of node 2
    // races the pre-drain of node 3.
    job.warn_only(&[NodeId(2)], 120_000)?;
    job.pre_drain(&[NodeId(3)])?;
    job.wait_event(
        |e| matches!(e, JobEvent::NodesEvicted { nodes } if nodes.contains(&NodeId(2))),
        "warned drain",
    )?;
    let st = job.status()?;
    assert_eq!(st.transient, 3, "only the warned node left");
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// The forecast was *right*: the suspect dies (warning-less) right after
/// its demotion completed. Because its partitions already moved, the
/// crash loses only worker state and rollback recovery runs routinely.
fn predrain_then_crash(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 3)?;
    job.wait_clock(6)?;
    job.pre_drain(&[NodeId(2)])?;
    job.fail_nodes(&[NodeId(2)])?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// A stale alert for a node that is already dead must be a filtered
/// no-op report, not a hang or a panic.
fn alert_for_dead_node(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 3)?;
    job.wait_clock(6)?;
    job.fail_nodes(&[NodeId(3)])?;
    // `pre_drain` waits for the controller's (empty) report; a hang here
    // is the bug this scenario guards against.
    job.pre_drain(&[NodeId(3)])?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// GCE-style short warning: thirty seconds is less than a drain takes,
/// and the kill races the drain orders. Whatever the interleaving, the
/// job must degrade to rollback recovery and converge — a typed fault at
/// worst, never a panic.
fn gce_short_warning(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 3)?;
    job.wait_clock(6)?;
    job.warn_only(&[NodeId(4)], 30_000)?;
    // The 30-second window expires before any drain completes: the
    // provider takes the machine regardless.
    let rolled = job.fail_nodes(&[NodeId(4)])?;
    assert!(
        job.status()?.transient < 3,
        "the short-warned node must be gone"
    );
    // Rollback ran (possibly to clock 0 early in the run) instead of a
    // completed drain — the warning was unusable by construction.
    let _ = rolled;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

// ---------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------

#[test]
fn predrain_demotes_without_eviction() {
    sweep("predrain_demotes_one", true, 1, predrain_demotes_one);
}

#[test]
fn predrain_storm_drains_every_active_to_backup() {
    sweep(
        "predrain_storm_all_actives",
        true,
        1,
        predrain_storm_all_actives,
    );
}

#[test]
fn alert_mid_migration_queues_behind_the_drain() {
    sweep("alert_mid_migration", true, 1, alert_mid_migration);
}

#[test]
fn predrain_then_crash_loses_only_worker_state() {
    sweep("predrain_then_crash", true, 1, predrain_then_crash);
}

#[test]
fn stale_alert_for_dead_node_is_a_no_op() {
    sweep("alert_for_dead_node", true, 1, alert_for_dead_node);
}

#[test]
fn gce_short_warning_degrades_to_rollback() {
    sweep("gce_short_warning", true, 1, gce_short_warning);
}

// ---------------------------------------------------------------------
// False-positive neutrality
// ---------------------------------------------------------------------

/// A false-positive pre-drain never touches committed work. The
/// migration reorders update application, so the model's floating-point
/// trajectory differs from the undisturbed run's; "neutral" is asserted
/// on everything that *is* comparable: the consistent clock never
/// regresses, no rollback recovery runs, no eviction registers, the
/// worker set is untouched — and training still converges. (Billing
/// neutrality is asserted at the session layer, where the market plane
/// is sim-time deterministic.)
#[test]
fn false_positive_predrain_never_loses_committed_work() {
    let bsp = AgileConfig {
        slack: 0,
        ..chaos_cfg(3)
    };
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), bsp, 1, 3).expect("launch");
    job.wait_clock(4).expect("warmup");
    let snap_before: ModelSnapshot = job.snapshot().expect("pre-drain snapshot");
    // The forecaster cried wolf: demote a healthy ActivePS host.
    job.pre_drain(&[NodeId(2)]).expect("pre-drain");
    let snap_after = job.snapshot().expect("post-drain snapshot");
    assert!(
        snap_after.clock >= snap_before.clock,
        "pre-drain regressed the consistent clock: {} -> {}",
        snap_before.clock,
        snap_after.clock
    );
    job.wait_clock(TARGET).expect("progress");
    // The event log must show monotone clock advances and no recovery
    // or eviction machinery — a wrong forecast is a pure topology move.
    let mut last_min = 0;
    for e in job.events() {
        match e {
            JobEvent::ClockAdvanced { min } => {
                assert!(
                    *min >= last_min,
                    "consistent clock regressed: {last_min} -> {min}"
                );
                last_min = *min;
            }
            JobEvent::NodesFailedRecovered { .. } => {
                panic!("a false-positive pre-drain must not trigger rollback")
            }
            JobEvent::NodesEvicted { nodes } if !nodes.is_empty() => {
                panic!("a false-positive pre-drain must not evict: {nodes:?}")
            }
            _ => {}
        }
    }
    let st = job.status().expect("status");
    assert_eq!(st.transient, 3, "membership untouched");
    let obj = job.objective(&data).expect("objective");
    assert!(obj < 0.15, "converged despite the wasted migration: {obj}");
    job.shutdown().expect("shutdown");
}

/// And pre-drain never *unblocks* wrongly either: a demoted node keeps
/// clocking, so a pre-drain of every ActivePS host cannot stall the
/// consistent clock (regression net for the demote-only contract —
/// removing suspects from the worker set would wedge BSP here).
#[test]
fn predrained_nodes_keep_clocking_under_bsp() {
    let bsp = AgileConfig {
        slack: 0,
        ..chaos_cfg(11)
    };
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), bsp, 1, 3).expect("launch");
    job.wait_clock(4).expect("warmup");
    job.pre_drain(&[NodeId(2), NodeId(3), NodeId(4)])
        .expect("storm pre-drain");
    job.wait_clock(TARGET)
        .expect("BSP must keep clocking with every suspect demoted");
    job.shutdown().expect("shutdown");
}
