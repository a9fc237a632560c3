//! Bit-exact fingerprints of the one-worker data path.
//!
//! `replay` drives a `WorkerState` against a `ServerState` by hand —
//! read, process, flush, apply — with no threads, so the model after
//! `n` clocks is a pure function of the inputs. The constants below
//! were recorded on the commit *before* the worker cache became a slab
//! and `MlApp::process` went in-place; both must reproduce them.
//!
//! A live one-machine job runs the same data path on the discrete-event
//! core, where a `snapshot()` taken right after `wait_clock(10)` lands
//! exactly on the clock boundary: it is checked bit for bit against the
//! replayed model at clock 10.

use std::collections::BTreeMap;
use std::sync::Arc;

use proteus_agileml::{
    AgileConfig, AgileMlJob, AgileMsg, BlockId, BlockKeys, ServerState, Stage, Topology,
    WorkerState,
};
use proteus_mlapps::data::{imagenet_like, netflix_like, MfDataConfig, MlrDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig, Rating};
use proteus_mlapps::mlr::{Example, Mlr, MlrConfig};
use proteus_mlapps::MlApp;
use proteus_ps::{DenseVec, ParamKey, PartitionId, PartitionMap, Values};
use proteus_simnet::NodeId;
use proteus_simtime::rng::seeded_stream;

const NODE: NodeId = NodeId(1);
const CONTROLLER: NodeId = NodeId(0);

type Model = BTreeMap<ParamKey, DenseVec>;

fn model_hash(model: &Model) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (k, row) in model {
        eat(&k.0.to_le_bytes());
        eat(&(row.as_slice().len() as u64).to_le_bytes());
        for x in row.as_slice() {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

fn same_bits(a: &Model, b: &Model) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
            ka == kb
                && va.as_slice().len() == vb.as_slice().len()
                && va
                    .as_slice()
                    .iter()
                    .zip(vb.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// The app's seeded initial model, as the controller would draw it.
fn init_model<A: MlApp>(app: &A, seed: u64) -> Model {
    let mut rng = seeded_stream(seed, 0x1217);
    (0..app.key_count())
        .map(|k| (ParamKey(k), app.init_value(ParamKey(k), &mut rng)))
        .collect()
}

/// One worker and one server wired back to back.
struct Replay<A: MlApp> {
    worker: WorkerState<A>,
    server: ServerState,
    topology: Topology,
    partitions: u32,
    /// Clocks the worker has reported done.
    clock: u64,
}

impl<A: MlApp> Replay<A> {
    fn new(app: A, data: Vec<A::Datum>, model: &Model, partitions: u32, blocks: u32) -> Self {
        let layout = PartitionMap::new(partitions).expect("nonzero");
        let all: Vec<PartitionId> = layout.partitions().collect();
        let mut server = ServerState::new(layout);
        server.reconfigure(&all, &[], false);
        for p in &all {
            let image: Values = model
                .iter()
                .filter(|(k, _)| layout.partition_of(**k) == *p)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            server.install_image(*p, image, 0);
        }
        let block_keys = Arc::new(BlockKeys::new(data.len(), blocks));
        let mut worker = WorkerState::new(
            Arc::new(app),
            Arc::new(data),
            block_keys,
            layout,
            0,
            seeded_stream(0, 0x4001),
            CONTROLLER,
        );
        worker.assign_blocks(&(0..blocks).map(BlockId).collect::<Vec<_>>());
        worker.start();
        let topology = Topology {
            version: 1,
            stage: Stage::Stage1,
            partition_owner: vec![NODE; partitions as usize],
            backup_owner: vec![None; partitions as usize],
            workers: vec![NODE],
        };
        Replay {
            worker,
            server,
            topology,
            partitions,
            clock: 0,
        }
    }

    /// Runs exactly one clock: reads, process, flush, apply.
    fn step(&mut self) {
        let before = self.clock;
        let mut outbox = self.worker.poll(&self.topology);
        while let Some((_, msg)) = outbox.pop() {
            match msg {
                AgileMsg::ReadReq { token, keys } => {
                    let values = self.server.handle_read(&keys);
                    outbox.extend(
                        self.worker
                            .on_read_resp(NODE, token, values, &self.topology),
                    );
                }
                AgileMsg::UpdateBatch {
                    partition, updates, ..
                } => assert!(self.server.handle_updates(partition, &updates)),
                AgileMsg::ClockDone { clock, epoch } => {
                    self.clock = clock;
                    self.worker.on_global_clock(clock, epoch);
                }
                other => panic!("unexpected worker message {other:?}"),
            }
        }
        assert_eq!(self.clock, before + 1, "one clock per step");
    }

    fn model(&self) -> Model {
        (0..self.partitions)
            .flat_map(|p| self.server.export_serving(PartitionId(p)))
            .collect()
    }
}

fn mf_problem() -> (MatrixFactorization, Vec<Rating>) {
    let data = netflix_like(
        &MfDataConfig {
            rows: 40,
            cols: 30,
            true_rank: 3,
            observed: 600,
            noise: 0.02,
        },
        11,
    );
    // Rank 11 = one full 8-lane chunk plus a scalar tail.
    let app = MatrixFactorization::new(MfConfig {
        rows: 40,
        cols: 30,
        rank: 11,
        learning_rate: 0.05,
        reg: 1e-3,
        init_scale: 0.2,
    });
    (app, data)
}

fn mlr_problem(dim: usize) -> (Mlr, Vec<Example>) {
    let data = imagenet_like(
        &MlrDataConfig {
            examples: 120,
            dim,
            classes: 5,
            separation: 2.0,
            noise: 0.4,
        },
        13,
    );
    let app = Mlr::new(MlrConfig {
        dim,
        classes: 5,
        learning_rate: 0.1,
        reg: 1e-3,
    });
    (app, data)
}

fn replay_hash<A: MlApp>(app: A, data: Vec<A::Datum>, seed: u64, clocks: u64) -> u64 {
    let model = init_model(&app, seed);
    let mut r = Replay::new(app, data, &model, 3, 4);
    for _ in 0..clocks {
        r.step();
    }
    model_hash(&r.model())
}

#[test]
fn mf_one_worker_fingerprint() {
    let (app, data) = mf_problem();
    assert_eq!(replay_hash(app, data, 11, 10), MF_TEN_CLOCKS);
}

/// `train_mf`'s shape: 600 × 400 with 60 000 ratings at rank 16, two
/// whole 8-lane chunks and no tail, for three clocks. Recorded on the
/// commit before MF's pass read its rows through resolved offsets.
#[test]
fn mf_rank16_one_worker_fingerprint() {
    let data = netflix_like(
        &MfDataConfig {
            rows: 600,
            cols: 400,
            true_rank: 8,
            observed: 60_000,
            noise: 0.05,
        },
        16,
    );
    let app = MatrixFactorization::new(MfConfig {
        rows: 600,
        cols: 400,
        rank: 16,
        ..MfConfig::default()
    });
    assert_eq!(replay_hash(app, data, 16, 3), MF16_THREE_CLOCKS);
}

#[test]
fn mlr_one_worker_fingerprint() {
    let (app, data) = mlr_problem(19);
    assert_eq!(replay_hash(app, data, 13, 10), MLR_TEN_CLOCKS);
}

/// Width 75 = nine 8-lane chunks plus a 3-float tail, past the kernels'
/// 64-float twin floor: on an AVX2 CPU this runs the twins. Recorded on
/// the commit before MLR's pass fused each step with the next logits.
#[test]
fn mlr_wide_one_worker_fingerprint() {
    let (app, data) = mlr_problem(75);
    assert_eq!(replay_hash(app, data, 13, 10), MLR_WIDE_TEN_CLOCKS);
}

/// A live one-machine job equals the replay at the clock waited for.
fn live_job_matches_replay<A: MlApp + Clone>(app: A, data: Vec<A::Datum>, seed: u64) {
    let cfg = AgileConfig {
        partitions: 1,
        data_blocks: 4,
        seed,
        ..AgileConfig::default()
    };
    let start = init_model(&app, seed);
    let mut job = AgileMlJob::launch(app.clone(), data.clone(), cfg, 1, 0).expect("launch");
    job.wait_clock(10).expect("ten clocks");
    let snap = job.snapshot().expect("snapshot");
    job.shutdown().expect("shutdown");
    assert_eq!(snap.clock, 10, "the snapshot sits on the clock waited for");

    let mut r = Replay::new(app, data, &start, 1, 4);
    for _ in 0..10 {
        r.step();
    }
    assert!(
        same_bits(&r.model(), &snap.params),
        "the live job at clock 10 is not the replayed model at clock 10"
    );
}

#[test]
fn mf_live_one_machine_job_equals_the_replay_at_clock_ten() {
    let (app, data) = mf_problem();
    live_job_matches_replay(app, data, 11);
}

#[test]
fn mlr_live_one_machine_job_equals_the_replay_at_clock_ten() {
    let (app, data) = mlr_problem(19);
    live_job_matches_replay(app, data, 13);
}

const MF_TEN_CLOCKS: u64 = 0xd8ce_18d1_cd28_d527;
const MF16_THREE_CLOCKS: u64 = 0x2079_9095_703e_ff22;
const MLR_TEN_CLOCKS: u64 = 0x8eee_5ba1_9158_c6e4;
const MLR_WIDE_TEN_CLOCKS: u64 = 0xae9c_ac3d_2929_98cc;
