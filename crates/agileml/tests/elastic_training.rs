//! End-to-end tests of the AgileML distributed runtime: real worker and
//! server nodes over simnet, real ML applications, real elasticity.

use proteus_agileml::{AgileConfig, AgileMlJob, JobEvent, Stage};
use proteus_mlapps::data::{imagenet_like, netflix_like, MfDataConfig, MlrDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_mlapps::mlr::{Mlr, MlrConfig};
use proteus_simnet::NodeClass;

fn mf_app() -> MatrixFactorization {
    MatrixFactorization::new(MfConfig {
        rows: 40,
        cols: 30,
        rank: 4,
        learning_rate: 0.05,
        reg: 1e-4,
        init_scale: 0.2,
    })
}

fn mf_data() -> Vec<proteus_mlapps::mf::Rating> {
    netflix_like(
        &MfDataConfig {
            rows: 40,
            cols: 30,
            true_rank: 3,
            observed: 900,
            noise: 0.02,
        },
        42,
    )
}

fn cfg() -> AgileConfig {
    AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 7,
        ..AgileConfig::default()
    }
}

#[test]
fn stage1_trains_mf_to_convergence() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 2, 2).expect("launch");
    let before = job.objective(&data).expect("objective");
    job.wait_clock(25).expect("progress");
    let after = job.objective(&data).expect("objective");
    assert!(
        after < before * 0.3,
        "distributed MF should converge: {before} -> {after}"
    );
    let status = job.status().expect("status");
    assert_eq!(status.stage, Stage::Stage1);
    assert_eq!(status.active_ps, 0);
    assert_eq!(status.workers, 4);
    job.shutdown().expect("shutdown");
}

#[test]
fn stage2_uses_active_and_backup_servers() {
    let data = mf_data();
    // 1 reliable + 4 transient → ratio 4 > 1 → stage 2.
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 4).expect("launch");
    let status = job.status().expect("status");
    assert_eq!(status.stage, Stage::Stage2);
    assert!(status.active_ps >= 1, "ActivePSs should exist in stage 2");
    assert_eq!(status.workers, 5, "stage 2 runs workers everywhere");
    job.wait_clock(25).expect("progress");
    let after = job.objective(&data).expect("objective");
    assert!(after < 0.1, "stage 2 training converges, got {after}");
    job.shutdown().expect("shutdown");
}

#[test]
fn forced_stage3_removes_reliable_workers() {
    let data = mf_data();
    let config = AgileConfig {
        force_stage: Some(Stage::Stage3),
        ..cfg()
    };
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), config, 1, 3).expect("launch");
    let status = job.status().expect("status");
    assert_eq!(status.stage, Stage::Stage3);
    assert_eq!(
        status.workers, 3,
        "stage 3 runs workers only on the 3 transient machines"
    );
    job.wait_clock(20).expect("progress");
    let after = job.objective(&data).expect("objective");
    assert!(after < 0.15, "stage 3 training converges, got {after}");
    job.shutdown().expect("shutdown");
}

#[test]
fn bulk_addition_is_incorporated_without_disruption() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 2).expect("launch");
    job.wait_clock(5).expect("warm-up");
    let mid = job.objective(&data).expect("objective");

    // Bulk-add 4 transient machines (2:1 → 6:1 ratio, stays stage 2).
    let added = job.add_machines(NodeClass::Transient, 4).expect("add");
    assert_eq!(added.len(), 4);
    let status = job.status().expect("status");
    assert_eq!(status.transient, 6);
    assert_eq!(status.workers, 7);

    job.wait_clock(30).expect("progress after add");
    let after = job.objective(&data).expect("objective");
    assert!(
        after < mid,
        "training keeps improving after bulk add: {mid} -> {after}"
    );
    job.shutdown().expect("shutdown");
}

#[test]
fn stage_transition_1_to_2_on_growth() {
    let data = mf_data();
    // 2 reliable + 2 transient → stage 1.
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 2, 2).expect("launch");
    assert_eq!(job.status().expect("status").stage, Stage::Stage1);
    job.wait_clock(5).expect("warm-up");

    // Grow to 2 reliable + 6 transient → ratio 3 → stage 2.
    job.add_machines(NodeClass::Transient, 4).expect("add");
    let status = job.status().expect("status");
    assert_eq!(status.stage, Stage::Stage2);
    assert!(status.active_ps >= 1);
    assert!(job.events().iter().any(|e| matches!(
        e,
        JobEvent::StageChanged {
            from: Stage::Stage1,
            to: Stage::Stage2
        }
    )));

    job.wait_clock(25).expect("progress");
    let after = job.objective(&data).expect("objective");
    assert!(after < 0.1, "converges across the transition, got {after}");
    job.shutdown().expect("shutdown");
}

#[test]
fn partial_eviction_with_warning_preserves_progress() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 4).expect("launch");
    job.wait_clock(10).expect("warm-up");
    let mid = job.objective(&data).expect("objective");

    // Evict 2 of the 4 transient machines (some host ActivePSs).
    let status = job.status().expect("status");
    assert_eq!(status.stage, Stage::Stage2);
    // Node ids: controller=0, reliable=1, transient=2..=5.
    let victims = [proteus_simnet::NodeId(2), proteus_simnet::NodeId(3)];
    job.evict_with_warning(&victims).expect("evict");

    let status = job.status().expect("status");
    assert_eq!(status.transient, 2);
    job.wait_clock(35).expect("progress after eviction");
    let after = job.objective(&data).expect("objective");
    assert!(
        after <= mid * 1.05,
        "no meaningful progress lost to warned eviction: {mid} -> {after}"
    );
    job.shutdown().expect("shutdown");
}

#[test]
fn full_transient_eviction_falls_back_to_reliable() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 4).expect("launch");
    job.wait_clock(10).expect("warm-up");
    let mid = job.objective(&data).expect("objective");

    // Evict every transient machine; backups must promote to ParamServs.
    let victims: Vec<_> = (2..=5).map(proteus_simnet::NodeId).collect();
    job.evict_with_warning(&victims).expect("evict");

    let status = job.status().expect("status");
    assert_eq!(status.stage, Stage::Stage1);
    assert_eq!(status.transient, 0);
    assert_eq!(status.workers, 1, "only the reliable machine works now");

    // Progress must be preserved (no rollback on a warned eviction) and
    // training must continue on the reliable machine alone.
    let preserved = job.objective(&data).expect("objective");
    assert!(
        preserved <= mid * 1.05,
        "drain preserved progress: {mid} -> {preserved}"
    );
    let min_now = status.min_clock;
    job.wait_clock(min_now + 5).expect("continues on reliable");
    job.shutdown().expect("shutdown");
}

#[test]
fn unwarned_failure_rolls_back_and_recovers() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 4).expect("launch");
    job.wait_clock(10).expect("warm-up");
    let mid = job.objective(&data).expect("objective");

    // Kill one transient machine abruptly (likely an ActivePS host:
    // first two transient nodes host ActivePSs with fraction 0.5).
    let rolled = job.fail_nodes(&[proteus_simnet::NodeId(2)]).expect("fail");
    assert!(rolled <= 10 + 60, "rolled back to a plausible clock");

    let status = job.status().expect("status");
    assert_eq!(status.transient, 3);
    let target = status.min_clock + 15;
    job.wait_clock(target).expect("progress after recovery");
    let after = job.objective(&data).expect("objective");
    assert!(
        after < mid * 1.2,
        "recovery continues converging: {mid} -> {after}"
    );
    job.shutdown().expect("shutdown");
}

#[test]
fn pure_worker_failure_needs_no_rollback() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 4).expect("launch");
    job.wait_clock(8).expect("warm-up");

    // With activeps_fraction = 0.5 and 4 transient nodes, the last two
    // transient nodes (ids 4, 5) are pure workers.
    let status_before = job.status().expect("status");
    job.fail_nodes(&[proteus_simnet::NodeId(5)]).expect("fail");
    let status = job.status().expect("status");
    assert_eq!(status.transient, status_before.transient - 1);
    job.wait_clock(status.min_clock + 10).expect("continues");
    job.shutdown().expect("shutdown");
}

#[test]
fn mlr_trains_distributed_in_stage2() {
    let data = imagenet_like(
        &MlrDataConfig {
            examples: 200,
            dim: 8,
            classes: 3,
            separation: 2.0,
            noise: 0.4,
        },
        11,
    );
    let app = Mlr::new(MlrConfig {
        dim: 8,
        classes: 3,
        learning_rate: 0.1,
        reg: 1e-4,
    });
    let config = AgileConfig {
        partitions: 3,
        data_blocks: 8,
        seed: 11,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(app, data.clone(), config, 1, 3).expect("launch");
    job.wait_clock(15).expect("progress");
    let after = job.objective(&data).expect("objective");
    // Workers start iterating the moment launch returns, so a "before"
    // objective sampled here races with training (this tiny job can
    // converge within one scheduler slice). Judge learning against the
    // untrained loss instead: uniform softmax over 3 classes scores
    // ln(3) ≈ 1.10.
    assert!(after < 0.2, "distributed MLR learns: -> {after}");
    job.shutdown().expect("shutdown");
}

#[test]
fn distributed_matches_sequential_quality() {
    // The distributed runtime should reach an objective comparable to
    // the sequential oracle on the same data.
    let data = mf_data();
    let mut seq = proteus_mlapps::SequentialTrainer::new(mf_app(), data.clone(), 7);
    seq.run(30);
    let oracle = seq.objective();

    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 3).expect("launch");
    job.wait_clock(30).expect("progress");
    let dist = job.objective(&data).expect("objective");
    job.shutdown().expect("shutdown");

    assert!(
        dist < oracle * 3.0 + 0.02,
        "distributed ({dist}) within range of sequential oracle ({oracle})"
    );
}
