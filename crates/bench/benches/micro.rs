//! Criterion micro-benchmarks for the performance-critical substrates:
//! parameter-server shard operations, market stepping, β training,
//! BidBrain decision evaluation, and the perfmodel kernel.
//!
//! ```text
//! cargo bench -p proteus-bench
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use proteus_bidbrain::{AllocView, AppParams, BetaEstimator, BidBrain, BidBrainConfig};
use proteus_market::{catalog, CloudProvider, MarketKey, MarketModel, TraceGenerator, Zone};
use proteus_mlapps::data::{imagenet_like, netflix_like, MfDataConfig, MlrDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_mlapps::mlr::{Mlr, MlrConfig};
use proteus_mlapps::MlApp;
use proteus_perfmodel::{presets, time_per_iteration, ClusterSpec, Layout};
use proteus_ps::{DenseVec, ParamKey, PartitionMap, PsValue, ShardStore, WorkerCache};
use proteus_simtime::{SimDuration, SimTime};

fn market_key() -> MarketKey {
    MarketKey::new(catalog::c4_xlarge(), Zone(0))
}

fn bench_ps_shard(c: &mut Criterion) {
    let layout = PartitionMap::new(32).expect("nonzero");
    c.bench_function("ps/shard_apply_update_1k_keys", |b| {
        let mut store: ShardStore<DenseVec> = ShardStore::new(layout);
        for k in 0..1000u64 {
            store.install(ParamKey(k), DenseVec::zeros(32));
        }
        let delta = DenseVec::from(vec![0.5; 32]);
        let mut k = 0u64;
        b.iter(|| {
            store.apply_update(ParamKey(k % 1000), black_box(&delta));
            k += 1;
        });
    });

    c.bench_function("ps/export_partition_1k_keys", |b| {
        let mut store: ShardStore<DenseVec> = ShardStore::new(layout);
        for k in 0..1000u64 {
            store.install(ParamKey(k), DenseVec::zeros(32));
        }
        b.iter(|| black_box(store.export_partition(proteus_ps::PartitionId(0))));
    });

    c.bench_function("ps/worker_cache_flush_256_updates", |b| {
        let delta = DenseVec::from(vec![0.1; 32]);
        b.iter(|| {
            let mut cache: WorkerCache<DenseVec> = WorkerCache::new(layout);
            for k in 0..256u64 {
                cache.update(ParamKey(k), &delta);
            }
            black_box(cache.flush())
        });
    });
}

fn bench_ps_rows(c: &mut Criterion) {
    // Row-op kernels at the dimensions the paper's apps actually use:
    // 8 (k-means coords), 128 (MF/MLR ranks), 1024 (LDA-scale rows).
    for dim in [8usize, 128, 1024] {
        let delta = DenseVec::from(vec![0.25; dim]);

        c.bench_function(&format!("ps/row_merge_dim{dim}"), |b| {
            let mut row = DenseVec::zeros(dim);
            b.iter(|| {
                row.merge(black_box(&delta));
            });
        });

        c.bench_function(&format!("ps/row_axpy_dim{dim}"), |b| {
            let mut row = DenseVec::zeros(dim);
            b.iter(|| {
                row.axpy(black_box(0.5), black_box(&delta));
            });
        });
    }
}

fn bench_ps_batch(c: &mut Criterion) {
    // Whole-batch application through the sharded store — the data-plane
    // hot path a server runs per incoming UpdateBatch.
    for keys in [1_000u64, 64_000] {
        let layout = PartitionMap::new(32).expect("nonzero");
        let mut store: ShardStore<DenseVec> = ShardStore::new(layout);
        for k in 0..keys {
            store.install(ParamKey(k), DenseVec::zeros(32));
        }
        let delta = DenseVec::from(vec![0.5; 32]);
        // Arc-backed values: building the batch is refcount bumps.
        let updates: Vec<(ParamKey, DenseVec)> =
            (0..keys).map(|k| (ParamKey(k), delta.clone())).collect();
        c.bench_function(&format!("ps/apply_batch_{}k_keys", keys / 1000), |b| {
            b.iter(|| {
                store.apply_batch(black_box(&updates));
            });
        });
        // Drain the dirty aggregate so it cannot grow without bound
        // across measurement batches.
        let _ = store.take_dirty();
    }
}

/// One `process` call over a warmed worker cache — the per-datum cost
/// of a training clock, at the shapes `train_mf` (many rank-16 rows) and
/// `train_mlr` (sixteen 512-wide rows) use.
fn bench_process<A: MlApp>(c: &mut Criterion, id: &str, app: A, mut data: Vec<A::Datum>) {
    let mut rng = proteus_simtime::rng::seeded(7);
    let mut params = WorkerCache::new(PartitionMap::new(32).expect("nonzero"));
    for k in (0..app.key_count()).map(ParamKey) {
        params.refresh(k, app.init_value(k, &mut rng).as_slice());
    }
    let mut scratch = A::Scratch::default();
    let mut i = 0;
    c.bench_function(id, |b| {
        b.iter(|| {
            app.process(&mut data[i], &mut scratch, &mut params, &mut rng);
            i = (i + 1) % data.len();
        });
    });
}

fn bench_mlapps(c: &mut Criterion) {
    let (rows, cols) = (600, 400);
    let mf = MatrixFactorization::new(MfConfig {
        rows,
        cols,
        rank: 16,
        ..MfConfig::default()
    });
    let ratings = netflix_like(
        &MfDataConfig {
            rows,
            cols,
            true_rank: 4,
            observed: 10_000,
            noise: 0.02,
        },
        7,
    );
    bench_process(c, "mlapps/mf_process_in_place", mf, ratings);

    let (dim, classes) = (512, 16);
    let mlr = Mlr::new(MlrConfig {
        dim,
        classes,
        ..MlrConfig::default()
    });
    let examples = imagenet_like(
        &MlrDataConfig {
            examples: 200,
            dim,
            classes,
            separation: 2.0,
            noise: 0.4,
        },
        7,
    );
    bench_process(c, "mlapps/mlr_process_in_place", mlr, examples);
}

fn bench_market(c: &mut Criterion) {
    c.bench_function("market/generate_week_trace", |b| {
        let gen = TraceGenerator::new(7, MarketModel::default());
        b.iter(|| black_box(gen.generate(market_key(), SimDuration::from_hours(24 * 7))));
    });

    c.bench_function("market/provider_advance_24h_4_allocs", |b| {
        let gen = TraceGenerator::new(7, MarketModel::default());
        let keys = catalog::paper_markets();
        let traces = gen.generate_set(&keys, SimDuration::from_hours(30));
        b.iter(|| {
            let mut p = CloudProvider::new(&traces);
            for k in keys.iter().take(4) {
                let price = p.spot_price(*k).expect("trace");
                let _ = p.request_spot(*k, 8, price + 0.05);
            }
            black_box(p.advance_to(SimTime::from_hours(24)).expect("forward"))
        });
    });
}

fn bench_bidbrain(c: &mut Criterion) {
    let gen = TraceGenerator::new(7, MarketModel::default());
    let horizon = SimDuration::from_hours(24 * 30);
    let trace = gen.generate(market_key(), horizon);

    c.bench_function("bidbrain/train_beta_30_days", |b| {
        b.iter(|| {
            let mut est = BetaEstimator::new();
            est.train(
                market_key(),
                black_box(&trace),
                SimTime::EPOCH,
                SimTime::EPOCH + horizon,
                SimDuration::from_mins(60),
                &BetaEstimator::default_deltas(),
            );
            black_box(est)
        });
    });

    // The cost study's decision shape: every paper market trained, the
    // serving-only on-demand tier plus three spot holdings, and a core
    // target the footprint has not reached — so the sweep runs (eight
    // markets × nine deltas) rather than returning early.
    let keys = catalog::paper_markets();
    let traces = gen.generate_set(&keys, horizon);
    let mut est = BetaEstimator::new();
    for k in &keys {
        est.train(
            *k,
            traces.get(k).expect("generated"),
            SimTime::EPOCH,
            SimTime::EPOCH + horizon,
            SimDuration::from_mins(60),
            &BetaEstimator::default_deltas(),
        );
    }
    let brain = BidBrain::new(
        AppParams::default(),
        est,
        BidBrainConfig {
            target_cores: 1_536,
            ..BidBrainConfig::default()
        },
    );
    let footprint: Vec<AllocView> = std::iter::once(AllocView::on_demand(keys[0], 3, 0.0))
        .chain([1usize, 2, 5].into_iter().map(|i| AllocView {
            market: keys[i],
            count: 64,
            hourly_price: 0.05 + 0.001 * i as f64,
            bid_delta: Some(0.01),
            time_remaining: SimDuration::from_mins(40),
            work_rate: f64::from(keys[i].instance_type().vcpus),
        }))
        .collect();
    let prices: Vec<(MarketKey, f64)> = keys.iter().map(|m| (*m, 0.05)).collect();
    c.bench_function("bidbrain/consider_acquisition_8_markets", |b| {
        b.iter(|| {
            black_box(brain.consider_acquisition(
                black_box(&footprint),
                black_box(&prices),
                SimTime::EPOCH,
            ))
        });
    });
    c.bench_function("bidbrain/evaluate_4_allocs", |b| {
        b.iter(|| black_box(brain.evaluate(black_box(&footprint), false)));
    });
}

fn bench_perfmodel(c: &mut Criterion) {
    let spec = ClusterSpec::cluster_a();
    let app = presets::mf_netflix_rank1000();
    c.bench_function("perfmodel/time_per_iteration_stage2", |b| {
        b.iter(|| {
            black_box(time_per_iteration(
                spec,
                app,
                Layout::Stage2 {
                    reliable: 4,
                    transient: 60,
                    active_ps: 32,
                },
            ))
        });
    });
}

criterion_group!(
    benches,
    bench_ps_shard,
    bench_ps_rows,
    bench_ps_batch,
    bench_mlapps,
    bench_market,
    bench_bidbrain,
    bench_perfmodel
);
criterion_main!(benches);
