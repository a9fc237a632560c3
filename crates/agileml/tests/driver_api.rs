//! Driver-API edge cases: invalid launches, no-op elasticity commands,
//! and well-behaved shutdown.

use proteus_agileml::{AgileConfig, AgileMlJob, JobError, Stage};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_simnet::NodeId;

fn app() -> MatrixFactorization {
    MatrixFactorization::new(MfConfig {
        rows: 20,
        cols: 10,
        rank: 2,
        learning_rate: 0.05,
        reg: 1e-4,
        init_scale: 0.2,
    })
}

fn data() -> Vec<proteus_mlapps::mf::Rating> {
    netflix_like(
        &MfDataConfig {
            rows: 20,
            cols: 10,
            true_rank: 2,
            observed: 200,
            noise: 0.02,
        },
        2,
    )
}

fn cfg() -> AgileConfig {
    AgileConfig {
        partitions: 2,
        data_blocks: 4,
        seed: 2,
        ..AgileConfig::default()
    }
}

#[test]
fn launch_requires_reliable_machines_and_valid_config() {
    assert!(AgileMlJob::launch(app(), data(), cfg(), 0, 2).is_err());
    let bad = AgileConfig {
        partitions: 0,
        ..cfg()
    };
    assert!(AgileMlJob::launch(app(), data(), bad, 1, 2).is_err());
}

#[test]
fn evicting_unknown_nodes_is_a_noop() {
    let mut job = AgileMlJob::launch(app(), data(), cfg(), 1, 2).expect("launch");
    job.wait_clock(3).expect("progress");
    let before = job.status().expect("status");
    // Node 99 never existed; the controller filters it and reports an
    // empty eviction, so this returns promptly instead of timing out.
    job.evict_with_warning(&[NodeId(99)])
        .expect("no-op eviction");
    let after = job.status().expect("status");
    assert_eq!(before.transient, after.transient);
    assert_eq!(before.reliable, after.reliable);
    job.shutdown().expect("shutdown");
}

/// A wait for an event that never comes, on a job that keeps training,
/// gives up after its bound of dispatched batches rather than a
/// wall-clock deadline: it fails typed, naming what it waited for, and
/// every run gives up at the same clock.
#[test]
fn a_hung_wait_times_out_at_the_same_clock_on_every_run() {
    let run = || {
        let mut job = AgileMlJob::launch(app(), data(), cfg(), 1, 2).expect("launch");
        let hung = job.wait_event(|_| false, "an event that never comes");
        let waiting_for = "an event that never comes";
        assert_eq!(hung, Err(JobError::Timeout { waiting_for }));
        job.status().expect("status").min_clock
    };
    let clock = run();
    assert!(
        clock > 100,
        "the wait ran dry instead of training on: {clock}"
    );
    assert_eq!(clock, run(), "the bound fell at another clock");
}

#[test]
fn empty_dataset_job_starts_and_stops() {
    // Degenerate but legal: with no data, workers tick through vacuous
    // iterations (their assigned blocks are empty); the job must still
    // start, answer status/snapshots, and shut down cleanly.
    let job_result = AgileMlJob::launch(app(), Vec::new(), cfg(), 1, 1);
    let job = job_result.expect("launch with empty dataset");
    let status = job.status().expect("status");
    assert_eq!(status.workers, 2);
    let snap = job.snapshot().expect("snapshot");
    assert_eq!(snap.params.len() as u64, 30, "params still initialized");
    job.shutdown().expect("shutdown");
}

#[test]
fn reliable_only_job_trains_traditionally() {
    // Zero transient machines: the degenerate all-reliable case must
    // behave like a traditional parameter server.
    let data = data();
    let mut job = AgileMlJob::launch(app(), data.clone(), cfg(), 2, 0).expect("launch");
    let status = job.status().expect("status");
    assert_eq!(status.stage, Stage::Stage1);
    assert_eq!(status.workers, 2);
    job.wait_clock(10).expect("progress");
    let obj = job.objective(&data).expect("objective");
    assert!(obj < 0.2, "converges without any transient machines: {obj}");
    job.shutdown().expect("shutdown");
}

#[test]
fn events_accumulate_and_are_queryable_after_the_fact() {
    let mut job = AgileMlJob::launch(app(), data(), cfg(), 1, 2).expect("launch");
    job.wait_clock(5).expect("progress");
    let events = job.events();
    assert!(events
        .iter()
        .any(|e| matches!(e, proteus_agileml::JobEvent::Started { nodes: 3 })));
    let clock_events = events
        .iter()
        .filter(|e| matches!(e, proteus_agileml::JobEvent::ClockAdvanced { .. }))
        .count();
    assert!(clock_events >= 5);
    job.shutdown().expect("shutdown");
}
