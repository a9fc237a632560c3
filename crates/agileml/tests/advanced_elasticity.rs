//! Advanced elasticity scenarios: bounded staleness, high-ratio stage
//! transitions, repeated churn, LDA under elasticity, and snapshot
//! consistency.

use proteus_agileml::{AgileConfig, AgileMlJob, JobEvent, Stage};
use proteus_mlapps::data::{netflix_like, nytimes_like, LdaDataConfig, MfDataConfig};
use proteus_mlapps::lda::{Lda, LdaConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_mlapps::MlApp;
use proteus_simnet::NodeClass;

fn mf_app() -> MatrixFactorization {
    MatrixFactorization::new(MfConfig {
        rows: 30,
        cols: 20,
        rank: 3,
        learning_rate: 0.05,
        reg: 1e-4,
        init_scale: 0.2,
    })
}

fn mf_data() -> Vec<proteus_mlapps::mf::Rating> {
    netflix_like(
        &MfDataConfig {
            rows: 30,
            cols: 20,
            true_rank: 2,
            observed: 500,
            noise: 0.02,
        },
        3,
    )
}

#[test]
fn ssp_slack_allows_progress_and_converges() {
    let data = mf_data();
    let cfg = AgileConfig {
        slack: 2, // Bounded staleness instead of BSP.
        partitions: 4,
        data_blocks: 8,
        seed: 3,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg, 1, 3).expect("launch");
    job.wait_clock(25).expect("progress");
    let obj = job.objective(&data).expect("objective");
    assert!(obj < 0.1, "SSP training converges: {obj}");
    job.shutdown().expect("shutdown");
}

#[test]
fn high_ratio_growth_reaches_stage3() {
    // 1 reliable; grow transient from 2 to 17 → ratio 17 > 15 → stage 3.
    let data = mf_data();
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 24,
        seed: 5,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg, 1, 2).expect("launch");
    assert_eq!(job.status().expect("status").stage, Stage::Stage2);
    job.wait_clock(3).expect("warm-up");

    job.add_machines(NodeClass::Transient, 15).expect("add");
    let status = job.status().expect("status");
    assert_eq!(
        status.stage,
        Stage::Stage3,
        "17:1 ratio crosses the 15:1 threshold"
    );
    // Stage 3: the reliable machine runs no worker.
    assert_eq!(status.workers, 17, "only the transient machines work");
    assert!(job.events().iter().any(|e| matches!(
        e,
        JobEvent::StageChanged {
            from: Stage::Stage2,
            to: Stage::Stage3
        }
    )));

    let min = status.min_clock;
    job.wait_clock(min + 10).expect("progress in stage 3");
    let obj = job.objective(&data).expect("objective");
    assert!(obj < 0.15, "stage 3 training converges: {obj}");

    // Shrink back below the threshold: stage must drop out of 3 and the
    // reliable worker must resume.
    let victims: Vec<_> = (8..=18).map(proteus_simnet::NodeId).collect();
    job.evict_with_warning(&victims).expect("evict");
    let status = job.status().expect("status");
    assert_ne!(status.stage, Stage::Stage3);
    assert_eq!(status.transient, 6);
    job.shutdown().expect("shutdown");
}

#[test]
fn repeated_churn_cycles_are_survivable() {
    let data = mf_data();
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 12,
        seed: 9,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg, 1, 2).expect("launch");
    job.wait_clock(3).expect("warm-up");

    for round in 0..3 {
        let added = job
            .add_machines(NodeClass::Transient, 2)
            .unwrap_or_else(|e| panic!("add round {round}: {e}"));
        let min = job.status().expect("status").min_clock;
        job.wait_clock(min + 3).expect("progress");
        job.evict_with_warning(&added)
            .unwrap_or_else(|e| panic!("evict round {round}: {e}"));
        let min = job.status().expect("status").min_clock;
        job.wait_clock(min + 3).expect("progress");
    }
    let status = job.status().expect("status");
    assert_eq!(status.transient, 2, "back to the original footprint");
    let obj = job.objective(&data).expect("objective");
    assert!(obj < 0.2, "training survived three churn cycles: {obj}");
    job.shutdown().expect("shutdown");
}

#[test]
fn lda_trains_under_elasticity() {
    let data_cfg = LdaDataConfig {
        docs: 24,
        vocab: 40,
        true_topics: 2,
        doc_len: 40,
        topic_purity: 0.95,
    };
    let docs = nytimes_like(&data_cfg, 21, 2);
    let app = Lda::new(LdaConfig {
        vocab: 40,
        topics: 2,
        alpha: 0.1,
        beta: 0.05,
    });
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 21,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(app, docs.clone(), cfg, 1, 2).expect("launch");
    job.wait_clock(5).expect("warm-up");

    let added = job.add_machines(NodeClass::Transient, 2).expect("add");
    job.wait_clock(15).expect("progress");
    job.evict_with_warning(&added).expect("evict");
    job.wait_clock(25).expect("progress");

    // The generator gives each ground-truth topic a disjoint vocabulary
    // slice (words 0..19 vs 20..39). After Gibbs sweeps — through an
    // add/evict cycle — the learned word-topic counts must separate the
    // two groups: within-group words agree on a dominant topic and the
    // two groups disagree.
    let snap = job.snapshot().expect("snapshot");
    let dominant = |word: u64| -> Option<usize> {
        snap.params.get(&proteus_ps::ParamKey(word)).map(|v| {
            v.as_slice()
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("counts finite"))
                .map(|(k, _)| k)
                .expect("topics nonzero")
        })
    };
    let group_votes = |lo: u64, hi: u64| -> (usize, usize) {
        let votes: Vec<usize> = (lo..hi).filter_map(dominant).collect();
        let ones = votes.iter().filter(|&&k| k == 1).count();
        (votes.len() - ones, ones)
    };
    let (a0, a1) = group_votes(0, 20);
    let (b0, b1) = group_votes(20, 40);
    let a_major = usize::from(a1 > a0);
    let b_major = usize::from(b1 > b0);
    assert_ne!(
        a_major, b_major,
        "the two vocabulary groups must land in different topics \
         (group A votes {a0}/{a1}, group B votes {b0}/{b1})"
    );
    let coherence = |zero: usize, one: usize| zero.max(one) as f64 / (zero + one).max(1) as f64;
    assert!(
        coherence(a0, a1) > 0.7 && coherence(b0, b1) > 0.7,
        "topic coherence within groups: A {a0}/{a1}, B {b0}/{b1}"
    );
    job.shutdown().expect("shutdown");
}

#[test]
fn kmeans_trains_distributed_with_elasticity() {
    // The fourth application (paper Sec. 3.2 lists K-means among the
    // stateless-worker workloads): distributed mini-batch K-means must
    // keep reducing distortion through an add/evict cycle.
    use proteus_mlapps::data::blobs;
    use proteus_mlapps::{KMeans, KmConfig};
    let dim = 2;
    let data = blobs(180, dim, 3, 4.0, 0.3, 25);
    let app = KMeans::new(KmConfig {
        dim,
        clusters: 3,
        init_scale: 3.0,
    });
    let cfg = AgileConfig {
        partitions: 3,
        data_blocks: 8,
        seed: 25,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(app, data.clone(), cfg, 1, 2).expect("launch");
    job.wait_clock(4).expect("warm-up");
    let early = job.objective(&data).expect("objective");

    let added = job.add_machines(NodeClass::Transient, 2).expect("add");
    job.wait_clock(12).expect("progress");
    job.evict_with_warning(&[added[0]]).expect("evict");
    job.wait_clock(20).expect("progress");

    let late = job.objective(&data).expect("objective");
    assert!(
        late < early,
        "distortion keeps falling through churn: {early} -> {late}"
    );
    assert!(late < 2.0, "near the blob noise floor: {late}");
    job.shutdown().expect("shutdown");
}

#[test]
fn snapshots_are_complete_during_churn() {
    let data = mf_data();
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 11,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(mf_app(), data, cfg, 1, 3).expect("launch");
    job.wait_clock(5).expect("warm-up");
    let key_count = mf_app().key_count();
    // Snapshot while training runs (workers mid-iteration).
    let snap = job.snapshot().expect("snapshot");
    assert_eq!(
        snap.params.len() as u64,
        key_count,
        "every parameter key is materialized in the snapshot"
    );
    // And again right after an eviction.
    job.evict_with_warning(&[proteus_simnet::NodeId(3)])
        .expect("evict");
    let snap = job.snapshot().expect("snapshot after eviction");
    assert_eq!(snap.params.len() as u64, key_count);
    job.shutdown().expect("shutdown");
}

#[test]
fn full_transient_loss_without_warning_promotes_backups() {
    // The paper's Sec. 3.3 "all or most of the transient resources fail"
    // case: BackupPSs take the last consistent state as the new solution
    // state; reliable workers redo the lost work.
    let data = mf_data();
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 17,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg, 1, 3).expect("launch");
    assert_eq!(job.status().expect("status").stage, Stage::Stage2);
    job.wait_clock(8).expect("warm-up");
    let mid = job.objective(&data).expect("objective");

    // Kill every transient machine at once, no warning.
    let victims: Vec<_> = (2..=4).map(proteus_simnet::NodeId).collect();
    let rolled = job.fail_nodes(&victims).expect("bulk failure");
    assert!(
        rolled <= 8 + 2,
        "rolled back near the failure point: {rolled}"
    );

    let status = job.status().expect("status");
    assert_eq!(status.stage, Stage::Stage1, "job degenerates to stage 1");
    assert_eq!(status.transient, 0);
    assert_eq!(status.workers, 1, "the reliable machine works alone");

    // The recovered state must be a *trained* state (rollback to the
    // last backup push, not to scratch) and training must continue.
    let recovered = job.objective(&data).expect("objective");
    assert!(
        recovered < mid * 3.0 + 0.02,
        "recovered from backup, not from scratch: {mid} -> {recovered}"
    );
    job.wait_clock(rolled + 8).expect("reliable-only progress");
    let later = job.objective(&data).expect("objective");
    assert!(
        later < recovered * 1.1,
        "keeps converging: {recovered} -> {later}"
    );
    job.shutdown().expect("shutdown");
}

#[test]
fn checkpoint_restores_across_job_launches() {
    // Sec. 3.3: reliable-resource checkpointing. Train, checkpoint,
    // drop the whole cluster (simulating a reliable-tier failure or a
    // job-sequence boundary), relaunch from the checkpoint in a fresh
    // one (the session's restart path), and verify the model picks up
    // where it left off.
    let data = mf_data();
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 29,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg, 1, 2).expect("launch");
    job.wait_clock(15).expect("train");
    let trained_obj = job.objective(&data).expect("objective");
    let checkpoint = job.snapshot().expect("checkpoint");

    // Relaunch from the checkpoint: the restored model must score the
    // same objective immediately (no retraining).
    job.relaunch_from_checkpoint(1, 2, Some(checkpoint))
        .expect("relaunch");
    let restored_obj = job.objective(&data).expect("objective");
    assert!(
        (restored_obj - trained_obj).abs() < trained_obj * 0.35 + 1e-3,
        "restored model matches (workers may have applied a first \
         iteration already): {trained_obj} -> {restored_obj}"
    );
    assert!(
        restored_obj < 0.2,
        "restored model is trained, not random: {restored_obj}"
    );
    job.wait_clock(5).expect("continues training");
    let continued = job.objective(&data).expect("objective");
    assert!(continued <= restored_obj * 1.1, "keeps converging");
    job.shutdown().expect("shutdown");
}

#[test]
fn failure_after_growth_recovers_partitions_to_survivors() {
    let data = mf_data();
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 12,
        seed: 13,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg, 1, 2).expect("launch");
    job.wait_clock(5).expect("warm-up");
    let added = job.add_machines(NodeClass::Transient, 2).expect("add");

    // Kill one original ActivePS host AND one new node at once (bulk
    // correlated failure).
    let rolled = job
        .fail_nodes(&[proteus_simnet::NodeId(2), added[0]])
        .expect("bulk failure recovery");
    let status = job.status().expect("status");
    assert_eq!(status.transient, 2);
    job.wait_clock(rolled + 10)
        .expect("progress after recovery");
    let obj = job.objective(&data).expect("objective");
    assert!(obj < 0.25, "recovered training converges: {obj}");
    job.shutdown().expect("shutdown");
}

/// Whole-job scale: 500 simulated machines are 500 handlers on one
/// queue, not 500 OS threads, so launching them, training, and draining
/// half the transient tier on a warning is a matter of seconds.
#[test]
fn five_hundred_machines_train_and_survive_a_bulk_eviction() {
    use proteus_simnet::NodeId;

    let app = MatrixFactorization::new(MfConfig {
        rows: 300,
        cols: 200,
        rank: 4,
        learning_rate: 0.05,
        reg: 1e-4,
        init_scale: 0.2,
    });
    let data = netflix_like(
        &MfDataConfig {
            rows: 300,
            cols: 200,
            true_rank: 3,
            observed: 6_000,
            noise: 0.02,
        },
        5,
    );
    // A block per machine and then some, so every worker has data; the
    // paper's N = half the maximum footprint would be 250 partitions —
    // 64 keeps the test quick and still spreads over 64 ActivePS hosts.
    let cfg = AgileConfig {
        partitions: 64,
        data_blocks: 1_000,
        seed: 3,
        ..AgileConfig::default()
    };
    let keys = app.key_count();
    let mut job = AgileMlJob::launch(app, data.clone(), cfg, 20, 480).expect("launch");
    let status = job.status().expect("status");
    assert_eq!(
        status.stage,
        Stage::Stage3,
        "24:1 is past the 15:1 threshold"
    );
    assert_eq!((status.reliable, status.transient), (20, 480));
    let before = job.objective(&data).expect("objective");
    job.wait_clock(2).expect("two clocks");

    // Nodes 1–20 are the reliable tier; every other transient machine
    // goes, ActivePS hosts among them.
    let victims: Vec<NodeId> = (21..=500).step_by(2).map(NodeId).collect();
    assert_eq!(victims.len(), 240);
    job.evict_with_warning(&victims).expect("bulk eviction");
    let status = job.status().expect("status");
    assert_eq!(status.transient, 240);
    let clock = status.min_clock;
    job.wait_clock(clock + 2).expect("training continues");

    let snap = job.snapshot().expect("snapshot");
    assert_eq!(snap.params.len() as u64, keys);
    let after = job.objective(&data).expect("objective");
    assert!(after < before, "still converging: {before} -> {after}");
    assert!(job
        .events()
        .iter()
        .all(|e| !matches!(e, JobEvent::NodesFailedRecovered { .. })));
    job.shutdown().expect("shutdown");
}
