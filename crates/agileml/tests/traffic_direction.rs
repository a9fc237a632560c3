//! Traffic-direction properties of the tiered architecture: the whole
//! point of stages 2/3 is *where* the heavy flows go, so these tests
//! assert message-flow direction on the real runtime.

use std::collections::BTreeMap;

use proteus_agileml::{AgileConfig, AgileMlJob, Stage};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_simnet::NodeId;

/// Messages the job delivered from one node to another, read off its
/// traffic matrix.
fn traffic(job: &AgileMlJob<MatrixFactorization>) -> impl Fn(NodeId, NodeId) -> u64 {
    let matrix: BTreeMap<_, _> = job.traffic_matrix().into_iter().collect();
    move |from, to| matrix.get(&(from, to)).copied().unwrap_or(0)
}

fn app() -> MatrixFactorization {
    MatrixFactorization::new(MfConfig {
        rows: 30,
        cols: 20,
        rank: 3,
        learning_rate: 0.05,
        reg: 1e-4,
        init_scale: 0.2,
    })
}

fn data() -> Vec<proteus_mlapps::mf::Rating> {
    netflix_like(
        &MfDataConfig {
            rows: 30,
            cols: 20,
            true_rank: 2,
            observed: 400,
            noise: 0.02,
        },
        6,
    )
}

#[test]
fn stage3_backup_stream_flows_toward_reliable_only() {
    // Stage 3 forced at small scale: node 0 = controller, node 1 =
    // reliable (pure BackupPS), nodes 2..=4 transient.
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 6,
        seed: 6,
        force_stage: Some(Stage::Stage3),
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(app(), data(), cfg, 1, 3).expect("launch");
    job.wait_clock(10).expect("progress");
    let between = traffic(&job);

    let reliable = NodeId(1);
    let controller = NodeId(0);
    let transient: Vec<NodeId> = (2..=4).map(NodeId).collect();

    // Backup pushes flow transient → reliable: inbound traffic exists.
    let inbound: u64 = transient.iter().map(|t| between(*t, reliable)).sum();
    assert!(inbound > 0, "ActivePSs must stream to the BackupPS");

    // The pure-backup reliable machine serves no one in steady state:
    // no traffic to any transient machine (it only talks to the
    // controller: Hello/Ready/clock answers).
    let outbound: u64 = transient.iter().map(|t| between(reliable, *t)).sum();
    assert_eq!(
        outbound, 0,
        "a stage-3 BackupPS sends nothing to transient machines"
    );
    assert!(between(reliable, controller) > 0);
    job.shutdown().expect("shutdown");
}

#[test]
fn stage1_serving_is_centered_on_reliable_machines() {
    // Stage 1: the reliable machine serves reads/updates, so traffic in
    // BOTH directions between workers and the reliable server must
    // dominate; transient machines exchange nothing among themselves
    // (workers never talk to workers).
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 6,
        seed: 6,
        force_stage: Some(Stage::Stage1),
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(app(), data(), cfg, 1, 3).expect("launch");
    job.wait_clock(10).expect("progress");
    let between = traffic(&job);

    let reliable = NodeId(1);
    let transient: Vec<NodeId> = (2..=4).map(NodeId).collect();
    for t in &transient {
        assert!(
            between(*t, reliable) > 0,
            "worker {t} sends reads/updates to the ParamServ"
        );
        assert!(
            between(reliable, *t) > 0,
            "the ParamServ answers worker {t}"
        );
    }
    for a in &transient {
        for b in &transient {
            if a != b {
                assert_eq!(
                    between(*a, *b),
                    0,
                    "stage-1 workers never talk to each other"
                );
            }
        }
    }
    job.shutdown().expect("shutdown");
}

#[test]
fn stage2_distributes_serving_across_transient_machines() {
    // Stage 2 with several ActivePSs: worker read/update traffic lands
    // on transient serving machines, not only on the reliable tier.
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 7,
        ..AgileConfig::default() // 4:1 ratio → stage 2 by thresholds.
    };
    let mut job = AgileMlJob::launch(app(), data(), cfg, 1, 4).expect("launch");
    assert_eq!(job.status().expect("status").stage, Stage::Stage2);
    job.wait_clock(10).expect("progress");
    let between = traffic(&job);

    let reliable = NodeId(1);
    // With activeps_fraction = 0.5 the first two transient nodes host
    // ActivePSs.
    let actives = [NodeId(2), NodeId(3)];
    let plain_workers = [NodeId(4), NodeId(5)];
    for w in &plain_workers {
        let to_actives: u64 = actives.iter().map(|a| between(*w, *a)).sum();
        assert!(
            to_actives > 0,
            "worker {w} must read/update via the ActivePSs"
        );
        assert_eq!(
            between(*w, reliable),
            0,
            "stage-2 workers do not touch the BackupPS directly"
        );
    }
    // And the backup stream flows from the actives to the reliable node.
    let pushes: u64 = actives.iter().map(|a| between(*a, reliable)).sum();
    assert!(pushes > 0);
    job.shutdown().expect("shutdown");
}
