//! Chaos suite for the tier that "never fails": reliable machines die
//! abruptly, alone and in correlated groups, at the worst moments the
//! elasticity protocol offers (mid-migration, mid-drain, during an
//! eviction storm). The contract is the robustness invariant extended
//! to the reliable tier:
//!
//! * a **strict-subset** loss with a clean protocol state is repaired
//!   in-job — the controller re-replicates the dead machines' BackupPS
//!   partitions onto surviving reliable machines and training
//!   converges without a restart;
//! * any loss the controller cannot prove repairable surfaces a typed
//!   [`JobError`] (never a panic, never a wedge past a driver timeout)
//!   so the session layer can restart from a durable checkpoint.
//!
//! The job, the seed sweep and the fault-free oracle are `common`'s; the
//! oracle's baseline runs on three reliable machines like the scenarios.

mod common;

use proteus_agileml::{AgileMlJob, JobError, JobEvent};
use proteus_simnet::NodeId;

use common::{chaos_cfg, mf_app, mf_data, sweep, TARGET};

// Machines are numbered from 1 in spawn order: reliable first, then
// transient. With `launch(.., 3, 3)`: reliable = 1..=3, transient = 4..=6.
const R1: NodeId = NodeId(1);
const R3: NodeId = NodeId(3);
const T1: NodeId = NodeId(4);
const T2: NodeId = NodeId(5);

// ---------------------------------------------------------------------
// In-job repair: strict-subset reliable loss must NOT need a restart
// ---------------------------------------------------------------------

/// One reliable machine dies in steady state. The controller must
/// re-replicate its BackupPS partitions onto the survivors and keep
/// training — the core tentpole contract.
fn reliable_kill_steady_state(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 3, 3)?;
    job.wait_clock(8)?;
    job.fail_nodes(&[R3])?;
    // Repair keeps the incarnation: no epoch-rolling restart, training
    // reaches the target on the surviving membership.
    job.wait_clock(TARGET)?;
    let repaired = job
        .events()
        .iter()
        .any(|e| matches!(e, JobEvent::ReliableRepaired { .. }));
    assert!(repaired, "a subset reliable kill must repair in-job");
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

#[test]
fn reliable_kill_steady_state_repairs_in_job() {
    sweep(
        "reliable_kill_steady_state",
        true,
        3,
        reliable_kill_steady_state,
    );
}

/// A warned (not crashed) reliable machine must drain through the same
/// repair path: its backups re-replicate from its own store within the
/// warning window, and the warning is honored instead of the old
/// warn-only-to-reliable short circuit raising a terminal fault.
fn reliable_warned_drain(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 3, 3)?;
    job.wait_clock(8)?;
    job.evict_with_warning(&[R3])?;
    job.wait_clock(TARGET)?;
    let repaired = job
        .events()
        .iter()
        .any(|e| matches!(e, JobEvent::ReliableRepaired { .. }));
    assert!(repaired, "a warned reliable machine must drain via repair");
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

#[test]
fn warned_reliable_machine_drains_without_fault() {
    sweep("reliable_warned_drain", true, 3, reliable_warned_drain);
}

// ---------------------------------------------------------------------
// Hostile timing: kills racing migrations, drains, and storms.
// Repair when provable, typed fault otherwise — never a panic.
// ---------------------------------------------------------------------

/// The reliable kill lands while a transient eviction's partition
/// migrations are still in flight.
fn reliable_kill_mid_migration(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 3, 3)?;
    job.wait_clock(6)?;
    // Provider-style warning starts the drain; the reliable kill races
    // the resulting migrations without waiting for them.
    job.warn_only(&[T1], 120_000)?;
    job.fail_nodes(&[R3])?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

#[test]
fn reliable_kill_mid_migration_repairs_or_faults() {
    sweep(
        "reliable_kill_mid_migration",
        false,
        3,
        reliable_kill_mid_migration,
    );
}

/// An eviction storm revokes every ActivePS while a reliable machine
/// dies mid-storm: recovery quorums, rollback, and backup re-replication
/// all overlap.
fn reliable_kill_during_storm(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 3, 3)?;
    job.wait_clock(6)?;
    job.warn_only(&[T1, T2, NodeId(6)], 120_000)?;
    job.fail_nodes(&[R3])?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

#[test]
fn reliable_kill_during_eviction_storm_never_panics() {
    sweep(
        "reliable_kill_during_storm",
        false,
        3,
        reliable_kill_during_storm,
    );
}

/// Correlated kill: a reliable machine and a transient ActivePS host
/// die in one report. The transient victim holds serving state, so the
/// controller is expected to refuse in-job repair (both copies of some
/// partition may be at risk) and raise the typed restart fault — but a
/// repair is also acceptable if the state allows it.
fn correlated_reliable_transient_kill(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 3, 3)?;
    job.wait_clock(6)?;
    job.fail_nodes(&[R3, T1])?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

#[test]
fn correlated_reliable_transient_kill_is_typed() {
    sweep(
        "correlated_reliable_transient_kill",
        false,
        3,
        correlated_reliable_transient_kill,
    );
}

/// Two reliable machines die back-to-back: the second kill lands while
/// the first repair's fills may still be in flight. Either both repairs
/// land or the controller types out — the filling map must never let a
/// dead fill source pass silently.
fn double_reliable_kill(seed: u64) -> Result<f64, JobError> {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), 3, 3)?;
    job.wait_clock(6)?;
    job.fail_nodes(&[R3])?;
    job.fail_nodes(&[R1])?;
    job.wait_clock(TARGET)?;
    let obj = job.objective(&data)?;
    job.shutdown()?;
    Ok(obj)
}

#[test]
fn double_reliable_kill_repairs_or_faults() {
    sweep("double_reliable_kill", false, 3, double_reliable_kill);
}
