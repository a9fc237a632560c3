//! Seed-deterministic chaos suite for AgileML over simnet.
//!
//! Every scenario here is a *fault schedule* applied to a real training
//! job: message faults (drop / duplicate / delay) go through the
//! [`FaultPlan`] installed at the cluster boundary, node faults
//! (crash-without-warning, warning-with-no-eviction,
//! warning-then-crash-before-drain, scripted eviction storms) go through
//! the driver. The contract under every schedule is the same: the job
//! either converges to the fault-free objective or surfaces a typed
//! [`JobError`] — it never panics and never wedges past a driver timeout.
//! (A message the fault layer holds back cannot starve a wait: the job's
//! waits release held messages whenever the queue runs dry.)
//!
//! The job, the seed sweep and the fault-free oracle are `common`'s.
//!
//! The named tests double as regression tests for bugs this harness
//! found: the `expect("partial eviction leaves surviving actives")`
//! panics on the total-ActivePS eviction storm, the `ReadReq` protocol
//! panic on duplicated traffic, and rejoining workers dragging the
//! consistent clock back to zero.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use proteus_agileml::AgileMsg;
use proteus_agileml::{AgileConfig, AgileMlJob, JobError, JobEvent, JobFault, Stage};
use proteus_mlapps::mf::MatrixFactorization;
use proteus_ps::ClockTable;
use proteus_simnet::{FaultPlan, FaultRule, NodeClass, NodeId};

use common::{chaos_cfg, mf_app, mf_data, sweep, TARGET};

/// Controller node; machines are numbered from 1 in spawn order.
const CTRL: NodeId = NodeId(0);

/// Waits until `NodesEvicted` events have covered all of `want`.
fn wait_all_evicted(
    job: &mut AgileMlJob<MatrixFactorization>,
    want: &[NodeId],
) -> Result<(), JobError> {
    let want: BTreeSet<NodeId> = want.iter().copied().collect();
    let mut gone = BTreeSet::new();
    job.wait_event(
        move |e| {
            if let JobEvent::NodesEvicted { nodes } = e {
                gone.extend(nodes.iter().copied());
            }
            want.is_subset(&gone)
        },
        "storm drain",
    )
}

// ---------------------------------------------------------------------
// Scenarios (node-fault schedules are scripted; message faults seeded)
// ---------------------------------------------------------------------

/// Revoke every ActivePS at once: the storm that used to panic the
/// controller with `expect("partial eviction leaves surviving actives")`.
/// Must fall back to stage 1 and re-serve from the BackupPSs.
fn storm_all_actives(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 3)?;
    job.wait_clock(8)?;
    job.evict_with_warning(&[NodeId(2), NodeId(3), NodeId(4)])?;
    let st = job.status()?;
    assert_eq!(st.stage, Stage::Stage1, "total storm falls back to stage 1");
    assert_eq!(st.transient, 0, "every transient node drained out");
    assert_eq!(st.active_ps, 0, "no ActivePS survives the storm");
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// Storm arriving in two waves: the second warning lands while the first
/// victim's partitions are still migrating, and ends up revoking 100% of
/// the ActivePSs mid-migration.
fn storm_mid_migration(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 4)?;
    job.wait_clock(6)?;
    // Provider-style warnings, no driver waiting in between: the second
    // wave races the first victim's drain.
    job.warn_only(&[NodeId(2)], 120_000)?;
    job.warn_only(&[NodeId(3), NodeId(4), NodeId(5)], 120_000)?;
    wait_all_evicted(&mut job, &[NodeId(2), NodeId(3), NodeId(4), NodeId(5)])?;
    let st = job.status()?;
    assert_eq!(st.transient, 0);
    assert_eq!(st.stage, Stage::Stage1);
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// Warning-then-crash-before-drain: the provider warns a node and kills
/// it immediately after, racing the controller's drain orders. Whether
/// the migration finished or not, the job must recover (a dead migration
/// source means its in-flight partitions are gone and rollback must run).
fn warn_then_crash(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 3)?;
    job.wait_clock(6)?;
    job.warn_only(&[NodeId(4)], 120_000)?;
    // No drain window: the kill races the EvictionNotice itself.
    job.fail_nodes(&[NodeId(4)])?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// Warning-with-no-eviction: the notice is dropped by the network, so
/// the controller never drains — training must simply continue. The
/// provider then takes the machine anyway (crash without usable
/// warning) and rollback recovery runs.
fn warning_no_eviction(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let plan = FaultPlan::new(seed).with_rule(FaultRule {
        from: None,
        to: Some(CTRL),
        drop: 1.0,
        duplicate: 0.0,
        delay: 0.0,
        filter: Some(Arc::new(|m: &AgileMsg| {
            matches!(m, AgileMsg::EvictionNotice { .. })
        })),
    });
    let mut job =
        AgileMlJob::launch_with_faults(mf_app(), data.clone(), chaos_cfg(seed), 1, 3, plan)?;
    job.wait_clock(6)?;
    job.warn_only(&[NodeId(4)], 120_000)?;
    // The warning is lost; the job keeps training at full membership.
    job.wait_clock(10)?;
    assert!(
        job.events()
            .iter()
            .all(|e| !matches!(e, JobEvent::NodesEvicted { .. })),
        "a dropped warning must not trigger a drain"
    );
    assert_eq!(job.status()?.transient, 3);
    assert!(job.fault_stats().dropped >= 1, "the notice was dropped");
    job.fail_nodes(&[NodeId(4)])?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// A second crash lands while the first rollback is still in flight
/// (backup clock query / recovery installs outstanding). The queued
/// failure must not wedge the pending recovery.
fn crash_mid_rollback(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 4)?;
    job.wait_clock(6)?;
    job.fail_nodes_async(&[NodeId(2)])?;
    job.fail_nodes_async(&[NodeId(3)])?;
    let mut recovered = BTreeSet::new();
    job.wait_event(
        move |e| {
            if let JobEvent::NodesFailedRecovered { nodes, .. } = e {
                recovered.extend(nodes.iter().copied());
            }
            recovered.contains(&NodeId(2)) && recovered.contains(&NodeId(3))
        },
        "back-to-back rollbacks",
    )?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// An eviction storm races a scale-up: warnings for every current
/// transient node are in flight while the driver integrates fresh
/// machines. Commands interleave arbitrarily at the controller.
fn storm_during_scale_up(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 1, 3)?;
    job.wait_clock(6)?;
    job.warn_only(&[NodeId(2), NodeId(3), NodeId(4)], 120_000)?;
    let added = job.add_machines(NodeClass::Transient, 2)?;
    assert_eq!(added.len(), 2);
    wait_all_evicted(&mut job, &[NodeId(2), NodeId(3), NodeId(4)])?;
    let st = job.status()?;
    assert_eq!(st.transient, 2, "only the fresh machines remain");
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// Payloads safe to both duplicate and reorder: idempotent at the
/// receiver and harmless when arriving after the receiver stopped.
fn dup_and_delay_safe(m: &AgileMsg) -> bool {
    matches!(
        m,
        AgileMsg::Topology(_)
            | AgileMsg::GlobalClock { .. }
            | AgileMsg::ClockDone { .. }
            | AgileMsg::Ready
            | AgileMsg::ReadReq { .. }
            | AgileMsg::ReadResp { .. }
    )
}

/// Payloads safe only to duplicate (a reorder could let a `Stop`
/// overtake them into a drained node, stranding an obligation).
fn dup_only_safe(m: &AgileMsg) -> bool {
    matches!(
        m,
        AgileMsg::Start
            | AgileMsg::InstallPartition { .. }
            | AgileMsg::BackupClockQuery
            | AgileMsg::BackupClockInfo { .. }
            | AgileMsg::RestartFrom { .. }
            | AgileMsg::EvictionNotice { .. }
    )
}

/// Duplicate + delay chaos on the message plane while the job scales up
/// and drains an eviction. `UpdateBatch`/`BackupPush` are never
/// duplicated (a doubled delta is a *different computation*, not a
/// fault), and drain orders are never reordered past `Stop`.
fn message_chaos(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let plan = FaultPlan::new(seed)
        .with_rule(FaultRule {
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.10,
            delay: 0.10,
            filter: Some(Arc::new(dup_and_delay_safe)),
        })
        .with_rule(FaultRule {
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.15,
            delay: 0.0,
            filter: Some(Arc::new(dup_only_safe)),
        })
        .with_rule(FaultRule {
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.15,
            filter: Some(Arc::new(|m: &AgileMsg| {
                matches!(m, AgileMsg::UpdateBatch { .. })
            })),
        });
    let mut job =
        AgileMlJob::launch_with_faults(mf_app(), data.clone(), chaos_cfg(seed), 1, 3, plan)?;
    job.wait_clock(8)?;
    job.add_machines(NodeClass::Transient, 1)?;
    job.wait_clock(12)?;
    job.evict_with_warning(&[NodeId(2)])?;
    job.wait_clock(TARGET)?;
    let stats = job.fault_stats();
    assert!(
        stats.duplicated + stats.delayed > 0,
        "the plan injected no faults — scenario is vacuous (stats: {stats:?})"
    );
    // Quiesce: release everything still held before judging the model.
    job.clear_faults();
    // The totals outlive the plan they were injected under.
    assert_eq!(
        job.fault_stats(),
        stats,
        "clearing the plan lost its fault totals"
    );
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

/// Batched-data-plane storm: duplicate + delay pressure aimed at the
/// zero-copy payload-bearing messages — `ReadReq` (compressed key
/// sets), `ReadResp` (value buffers Arc-shared with the serving store),
/// and delayed `UpdateBatch`es (whose `Values` buffer is shared with
/// every other clone of the message) — while an eviction revokes a
/// server mid-flight. A fault-injected duplicate here is a
/// reference-count bump on a live shared buffer, so this schedule is
/// the regression net for the zero-copy messaging layer: re-delivery,
/// delay past a topology flip, and drop must never alias writes into a
/// payload another message (or the store) still reads.
fn batched_dataplane_storm(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let plan = FaultPlan::new(seed)
        .with_rule(FaultRule {
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.25,
            delay: 0.20,
            filter: Some(Arc::new(|m: &AgileMsg| {
                matches!(m, AgileMsg::ReadReq { .. } | AgileMsg::ReadResp { .. })
            })),
        })
        .with_rule(FaultRule {
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.25,
            filter: Some(Arc::new(|m: &AgileMsg| {
                matches!(m, AgileMsg::UpdateBatch { .. })
            })),
        });
    let mut job =
        AgileMlJob::launch_with_faults(mf_app(), data.clone(), chaos_cfg(seed), 1, 3, plan)?;
    job.wait_clock(8)?;
    job.evict_with_warning(&[NodeId(2)])?;
    job.wait_clock(TARGET)?;
    let stats = job.fault_stats();
    assert!(
        stats.duplicated + stats.delayed > 0,
        "the plan injected no data-plane faults — scenario is vacuous (stats: {stats:?})"
    );
    job.clear_faults();
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

// ---------------------------------------------------------------------
// The sweep: scenarios × seeds, reproducible from the printed seed
// ---------------------------------------------------------------------

#[test]
fn total_activeps_eviction_storm_promotes_backups() {
    sweep("storm_all_actives", true, 1, storm_all_actives);
}

#[test]
fn eviction_storm_mid_migration_revokes_every_activeps() {
    sweep("storm_mid_migration", true, 1, storm_mid_migration);
}

#[test]
fn warning_then_crash_before_drain_recovers() {
    sweep("warn_then_crash", true, 1, warn_then_crash);
}

#[test]
fn warning_with_no_eviction_keeps_training_then_survives_crash() {
    sweep("warning_no_eviction", true, 1, warning_no_eviction);
}

#[test]
fn crash_mid_rollback_runs_back_to_back_recoveries() {
    sweep("crash_mid_rollback", true, 1, crash_mid_rollback);
}

#[test]
fn eviction_storm_during_scale_up_is_serialized() {
    sweep("storm_during_scale_up", true, 1, storm_during_scale_up);
}

#[test]
fn message_plane_chaos_duplicates_and_delays() {
    // Soft: heavy reordering may legitimately end in a typed error, but
    // never a panic or a wedge past the driver timeout.
    sweep("message_chaos", false, 1, message_chaos);
}

#[test]
fn batched_data_plane_survives_duplicate_and_delay_storm() {
    // Soft for the same reason as `message_chaos`; the no-panic contract
    // is what the zero-copy payloads are on trial for here.
    sweep("batched_dataplane_storm", false, 1, batched_dataplane_storm);
}

// ---------------------------------------------------------------------
// Named regressions for chaos-found bugs
// ---------------------------------------------------------------------

/// A node added *after* a rollback recovery must adopt the recovery's
/// epoch on its first `Configure`. Found by the market chaos suite's
/// launch-then-die scenario: the fresh worker stayed at epoch 0 while
/// the controller had advanced, so its `ClockDone`s were dropped as
/// stale and its entry pinned the consistent clock — the whole cluster
/// SSP-blocked on a healthy-looking worker.
#[test]
fn node_added_after_recovery_joins_the_new_epoch() {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), chaos_cfg(3), 1, 3).expect("launch");
    job.wait_clock(4).expect("initial progress");
    // A warning-less failure triggers rollback recovery, which bumps
    // the epoch.
    job.fail_nodes(&[NodeId(2)]).expect("recovery");
    // The replacement arrives in the post-recovery epoch; before the
    // fix its clock entry never advanced and this wait timed out.
    job.add_machines(NodeClass::Transient, 1).expect("add");
    job.wait_clock(TARGET)
        .expect("the cluster must keep clocking with the new node");
    job.shutdown().expect("shutdown");
}

/// Revoking (or losing) the reliable tier is unrecoverable *by design* —
/// but it must surface as a typed fault, not a controller panic.
#[test]
fn reliable_eviction_and_failure_are_typed_not_panics() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(3), 1, 2).expect("launch");
    job.wait_clock(4).expect("progress");
    let err = job
        .evict_with_warning(&[NodeId(1)])
        .expect_err("evicting the reliable tier must fail");
    assert!(
        matches!(
            &err,
            JobError::Fault(JobFault::ReliableNodesEvicted { nodes }) if nodes == &[NodeId(1)]
        ),
        "unexpected error: {err}"
    );
    // The controller survived the refusal: the job is still live.
    job.wait_clock(6)
        .expect("training continues after the refusal");
    job.shutdown().expect("shutdown");

    let mut job = AgileMlJob::launch(mf_app(), data, chaos_cfg(3), 1, 2).expect("launch");
    job.wait_clock(4).expect("progress");
    let err = job
        .fail_nodes(&[NodeId(1)])
        .expect_err("losing the reliable tier must fail");
    assert!(
        matches!(
            &err,
            JobError::Fault(JobFault::ReliableNodesFailed { nodes }) if nodes == &[NodeId(1)]
        ),
        "unexpected error: {err}"
    );
    // The backups died with the reliable node; the model is gone but the
    // process must stay alive enough to be torn down.
    let _ = job.shutdown();
}

/// A worker that leaves the clock table (stage 2→3 removes reliable
/// workers) and later rejoins (3→2) must re-enter at the last broadcast
/// minimum, not at zero — otherwise the SSP consistent clock snaps back
/// and every worker re-runs the whole history.
#[test]
fn rejoining_reliable_worker_does_not_regress_the_clock() {
    let data = mf_data();
    let cfg = AgileConfig {
        slack: 1,
        partitions: 4,
        data_blocks: 8,
        stage2_threshold: 1.0,
        stage3_threshold: 3.0,
        activeps_fraction: 0.5,
        seed: 7,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(mf_app(), data, cfg, 1, 2).expect("launch");
    job.wait_clock(6).expect("progress");
    assert_eq!(job.status().expect("status").stage, Stage::Stage2);

    // Ratio 4 ≥ 3 → stage 3: the reliable machine's worker deregisters.
    let added = job.add_machines(NodeClass::Transient, 2).expect("grow");
    job.wait_event(
        |e| {
            matches!(
                e,
                JobEvent::StageChanged {
                    to: Stage::Stage3,
                    ..
                }
            )
        },
        "stage 3 transition",
    )
    .expect("reaches stage 3");
    job.wait_clock(12).expect("progress in stage 3");
    let before = job.status().expect("status").min_clock;

    // Ratio back to 2 < 3 → stage 2: the reliable worker rejoins.
    job.evict_with_warning(&added).expect("shrink");
    job.wait_event(
        |e| {
            matches!(
                e,
                JobEvent::StageChanged {
                    to: Stage::Stage2,
                    ..
                }
            )
        },
        "stage 2 transition",
    )
    .expect("returns to stage 2");
    let after = job.status().expect("status").min_clock;
    assert!(
        after >= before,
        "rejoining worker dragged the consistent clock from {before} back to {after}"
    );
    job.wait_clock(before + 4)
        .expect("rejoined worker keeps up");

    // No rollback happened, so the broadcast min must be monotone.
    let mins: Vec<u64> = job
        .events()
        .iter()
        .filter_map(|e| match e {
            JobEvent::ClockAdvanced { min } => Some(*min),
            _ => None,
        })
        .collect();
    assert!(
        mins.windows(2).all(|w| w[0] <= w[1]),
        "clock broadcasts regressed: {mins:?}"
    );
    job.shutdown().expect("shutdown");
}

/// Fig. 16 / DESIGN.md shape target 5: a *warned* bulk eviction drains
/// state in the warning window, so it costs at most a brief pause —
/// never a rollback, never redone work.
#[test]
fn bulk_eviction_costs_one_iteration_blip() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data, chaos_cfg(9), 1, 3).expect("launch");
    job.wait_clock(10).expect("progress");
    let before = job.status().expect("status").min_clock;
    job.evict_with_warning(&[NodeId(2), NodeId(3), NodeId(4)])
        .expect("bulk eviction");
    let after = job.status().expect("status").min_clock;
    assert!(
        after >= before,
        "warned eviction rolled the clock back: {before} -> {after}"
    );
    assert!(
        job.events()
            .iter()
            .all(|e| !matches!(e, JobEvent::NodesFailedRecovered { .. })),
        "a warned eviction must not run rollback recovery"
    );
    // The blip: the survivor resumes within a couple of iterations.
    job.wait_clock(before + 3)
        .expect("progress resumes after the storm");
    job.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Property: the SSP consistent clock under arbitrary churn
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model-level property behind every fault plan above: under any
    /// interleaving of worker progress, evictions/crashes, and rejoins
    /// (rejoining at the last broadcast minimum, as the controller does),
    /// the consistent clock (a) always equals the minimum completed
    /// clock — never exceeds it — and (b) never regresses below what was
    /// already broadcast to the workers.
    #[test]
    fn consistent_clock_never_exceeds_min_completed_under_churn(
        ops in proptest::collection::vec((0u32..5, 0u8..3, 1u64..4), 1..200)
    ) {
        let mut table = ClockTable::default();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut broadcast = 0u64;
        for w in 0..5u32 {
            table.register_at(w, 0);
            model.insert(w, 0);
        }
        for (w, op, dc) in ops {
            match op {
                0 => {
                    // Worker progress.
                    if let Some(c) = model.get_mut(&w) {
                        *c += dc;
                        let done = *c;
                        table.advance(w, done);
                    }
                }
                1 => {
                    // Eviction or crash: the worker leaves the table.
                    table.deregister(w);
                    model.remove(&w);
                }
                _ => {
                    // Rejoin at the last broadcast minimum — the
                    // controller's re-registration rule.
                    model.entry(w).or_insert_with(|| {
                        table.register_at(w, broadcast);
                        broadcast
                    });
                }
            }
            let min = table.min_clock();
            prop_assert_eq!(min, model.values().min().copied());
            if let Some(min) = min {
                prop_assert!(
                    min >= broadcast,
                    "consistent clock {} regressed below broadcast {}",
                    min,
                    broadcast
                );
                broadcast = broadcast.max(min);
            }
        }
    }
}
