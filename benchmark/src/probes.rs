//! Layer probes: fixed-size loops over one crate's public API, on the
//! shapes of the workload that asked, giving the unit cost the
//! outside-in layer tables multiply counts by.
//!
//! Every probe is a span of the traced pass. Loop sizes target a few
//! tenths of a second at `probe_divisor == 1`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use proteus_bidbrain::{
    AllocView, AppParams, BetaEstimator, BidBrain, BidBrainConfig, ForecastConfig,
    PreemptionForecaster,
};
use proteus_market::{catalog, CloudProvider, MarketKey, MarketModel, TraceGenerator, TraceSet};
use proteus_mlapps::data::{nytimes_like, LdaDataConfig};
use proteus_mlapps::lda::{Lda, LdaConfig};
use proteus_mlapps::train::SequentialTrainer;
use proteus_obs::{Event, MarketEvent, Recorder};
use proteus_perfmodel::{presets, scaling_curve, ClusterSpec};
use proteus_ps::{
    decode_model, encode_model, DenseVec, KeySet, ParamKey, PartitionMap, ShardStore, Values,
    WorkerCache,
};
use proteus_simnet::{Cluster, FnNode, Incoming, NodeClass, NodeId, SimCluster};
use proteus_simtime::{EventQueue, SimDuration, SimTime};

use crate::inputs::{self, TRAIN_DAYS};
use crate::run::{Ctx, Layers};

/// Times `iters` calls of `f`, returning nanoseconds per call.
fn ns_per_iter(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let iters = iters.max(1);
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn scaled(ctx: &Ctx, iters: usize) -> usize {
    (iters / ctx.sizes.probe_divisor).max(1)
}

/// A dense vector of `dim` deterministic, non-trivial values.
fn dense(dim: usize, salt: u64) -> DenseVec {
    let mut v = DenseVec::zeros(dim);
    for (i, x) in v.as_mut_slice().iter_mut().enumerate() {
        *x = ((salt.wrapping_mul(31).wrapping_add(i as u64) % 97) as f32 - 48.0) / 64.0;
    }
    v
}

/// `mlapps.*_seq_iter_ms`: one pass of the plain single-worker trainer
/// over the workload's own data — the baseline a distributed clock is
/// compared with. Returns that workload app's figure.
pub fn mlapps(ctx: &mut Ctx, layers: &mut Layers, mlr: bool) -> Option<f64> {
    fn pass_ms<A: proteus_mlapps::app::MlApp>(
        app: A,
        data: Vec<A::Datum>,
        seed: u64,
        passes: usize,
    ) -> f64 {
        let mut trainer = SequentialTrainer::new(app, data, seed);
        trainer.run_iteration();
        let ns = ns_per_iter(passes, |_| trainer.run_iteration());
        black_box(trainer.objective());
        ns / 1e6
    }
    let seed = ctx.seed;
    let sizes = ctx.sizes;
    let ms = if mlr {
        let passes = scaled(ctx, 8);
        let ms = ctx.tracer.span("probe.mlapps.mlr_seq", |_| {
            let (app, data) = inputs::mlr_problem(seed, sizes.mlr);
            pass_ms(app, data, seed, passes)
        });
        layers.set("mlapps.mlr_seq_iter_ms", ms);
        ms
    } else {
        let passes = scaled(ctx, 20);
        let ms = ctx.tracer.span("probe.mlapps.mf_seq", |_| {
            let (app, data) = inputs::mf_problem(seed, sizes.mf);
            pass_ms(app, data, seed, passes)
        });
        layers.set("mlapps.mf_seq_iter_ms", ms);
        // No workload trains LDA; its pass time rides along with MF so
        // the third bundled app has a recorded baseline too.
        let passes = scaled(ctx, 20);
        let lda_ms = ctx.tracer.span("probe.mlapps.lda_seq", |_| {
            let topics = 10;
            let data = nytimes_like(
                &LdaDataConfig {
                    docs: 400,
                    vocab: 1_000,
                    true_topics: topics,
                    doc_len: 60,
                    topic_purity: 0.85,
                },
                seed,
                topics,
            );
            let app = Lda::new(LdaConfig {
                vocab: 1_000,
                topics,
                ..LdaConfig::default()
            });
            pass_ms(app, data, seed, passes)
        });
        layers.set("mlapps.lda_seq_iter_ms", lda_ms);
        ms
    };
    Some(ms)
}

/// Every `(key, value)` of `store`, partition by partition.
fn image(store: &ShardStore<DenseVec>) -> Vec<(ParamKey, DenseVec)> {
    store
        .layout()
        .partitions()
        .flat_map(|p| store.export_partition(p))
        .collect()
}

fn same_bits(a: &[(ParamKey, DenseVec)], b: &[(ParamKey, DenseVec)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
            ka == kb
                && va.dim() == vb.dim()
                && va
                    .as_slice()
                    .iter()
                    .zip(vb.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// `ps.*`: the server shard's batched apply and keyed read at `dim`
/// (16: MF's many small rows; 512: MLR's few wide ones), the worker
/// cache's flush, and a partition's export + import.
pub fn ps(ctx: &mut Ctx, layers: &mut Layers, dim: usize) {
    // MF at the benchmark's size touches ~1 000 rows; MLR has 16.
    let keys: Vec<ParamKey> = (0..if dim <= 64 { 1_000 } else { 16 })
        .map(ParamKey)
        .collect();
    let Some(layout) = PartitionMap::new(8) else {
        return;
    };
    let mut store: ShardStore<DenseVec> = ShardStore::new(layout);
    for k in &keys {
        store.install(*k, dense(dim, k.0));
    }
    let updates: Vec<(ParamKey, DenseVec)> =
        keys.iter().map(|k| (*k, dense(dim, k.0 + 7))).collect();

    // Correctness first: the batch path must leave the bits the per-key
    // path leaves.
    let (mut batched, mut per_key) = (store.clone(), store.clone());
    batched.apply_batch(&updates);
    for (k, d) in &updates {
        per_key.apply_update(*k, d);
    }
    ctx.ops.check(
        "apply_batch state bit-identical to per-key apply_update",
        same_bits(&image(&batched), &image(&per_key))
            && same_bits(&batched.take_dirty(), &per_key.take_dirty()),
    );

    let rounds = scaled(ctx, 4_000_000 / (keys.len() * dim.max(16)));
    let (apply_name, read_name) = if dim <= 64 {
        ("ps.apply_ns_per_key_d16", "ps.read_ns_per_key_d16")
    } else {
        ("ps.apply_ns_per_key_d512", "ps.read_ns_per_key_d512")
    };
    let apply = ctx.tracer.span("probe.ps.apply_batch", |_| {
        ns_per_iter(rounds, |_| store.apply_batch(black_box(&updates)))
    });
    layers.set(apply_name, apply / keys.len() as f64);

    let read = ctx.tracer.span("probe.ps.read", |_| {
        ns_per_iter(rounds, |_| {
            let set = KeySet::from_sorted(black_box(&keys));
            let mut sum = 0.0f32;
            for k in set.iter() {
                if let Some(v) = store.read(k) {
                    sum += v.as_slice()[0];
                }
            }
            black_box(sum);
        })
    });
    layers.set(read_name, read / keys.len() as f64);

    let flush = ctx.tracer.span("probe.ps.cache_flush", |_| {
        let mut cache: WorkerCache<DenseVec> = WorkerCache::new(layout);
        ns_per_iter(rounds, |_| {
            for (k, d) in &updates {
                cache.update(*k, d);
            }
            black_box(cache.flush());
        })
    });
    layers.set("ps.cache_flush_ns_per_key", flush / keys.len() as f64);

    let migrate = ctx.tracer.span("probe.ps.migrate", |_| {
        let mut target: ShardStore<DenseVec> = ShardStore::new(layout);
        ns_per_iter(rounds, |i| {
            let p = proteus_ps::PartitionId((i % 8) as u32);
            target.import_partition(black_box(store.export_partition(p)));
        })
    });
    layers.set("ps.migrate_us_per_partition", migrate / 1e3);
}

/// `ps.snapshot_*`: the durable checkpoint codec on a model of `keys`
/// rows of `dim`.
pub fn ps_snapshot(ctx: &mut Ctx, layers: &mut Layers, keys: u64, dim: usize) {
    let model: BTreeMap<ParamKey, DenseVec> =
        (0..keys).map(|k| (ParamKey(k), dense(dim, k))).collect();
    let blob = encode_model(&model);
    ctx.ops.check(
        "snapshot decodes to the model it encoded",
        decode_model(&blob).is_ok_and(|m| {
            same_bits(
                &m.into_iter().collect::<Vec<_>>(),
                &model.clone().into_iter().collect::<Vec<_>>(),
            )
        }),
    );
    let mb = blob.len() as f64 / 1e6;
    let rounds = scaled(ctx, (40_000_000 / blob.len().max(1)).max(10));
    let enc = ctx.tracer.span("probe.ps.snapshot_encode", |_| {
        ns_per_iter(rounds, |_| {
            black_box(encode_model(black_box(&model)));
        })
    });
    let dec = ctx.tracer.span("probe.ps.snapshot_decode", |_| {
        ns_per_iter(rounds, |_| {
            black_box(decode_model(black_box(&blob)).is_ok());
        })
    });
    layers.set("ps.snapshot_encode_mb_per_s", mb / (enc / 1e9));
    layers.set("ps.snapshot_decode_mb_per_s", mb / (dec / 1e9));
}

/// Traffic of the simnet probes: a round token out, an ack back, each
/// carrying a shared (`Arc`-backed) payload like the PS data plane's.
#[derive(Clone)]
enum Ping {
    Token(Values<DenseVec>),
    Ack,
}

/// `simnet.thread_ns_per_msg`: a 4-node thread-per-node `Cluster`, the
/// root sending each peer a payload of the workload's row shape and
/// collecting acks, round after round.
pub fn simnet_threads(ctx: &mut Ctx, layers: &mut Layers, dim: usize) {
    const NODES: u32 = 4;
    let rounds = scaled(ctx, 20_000) as u32;
    let rows = if dim <= 64 { 250 } else { 16 };
    let mut payload: Values<DenseVec> = Values::new();
    for k in 0..rows {
        payload.push((ParamKey(k), dense(dim, k)));
    }
    let ns = ctx.tracer.span("probe.simnet.threads", |_| {
        let mut cluster: Cluster<Ping> = Cluster::new();
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let root = cluster.spawn(NodeClass::Reliable, move |node| {
            let mut acks = 0;
            let mut round = 0;
            loop {
                match node.recv() {
                    Ok(Incoming::App(env)) => match env.msg {
                        Ping::Token(p) => {
                            for i in 1..NODES {
                                let _ = node.send(NodeId(i), Ping::Token(p.clone()));
                            }
                        }
                        Ping::Ack => {
                            acks += 1;
                            if acks == NODES - 1 {
                                acks = 0;
                                round += 1;
                                if round == rounds {
                                    break;
                                }
                                for i in 1..NODES {
                                    let _ = node.send(NodeId(i), Ping::Token(payload.clone()));
                                }
                            }
                        }
                    },
                    Ok(Incoming::Control(_)) => {}
                    Err(_) => break,
                }
            }
            let _ = done_tx.send(());
        });
        for _ in 1..NODES {
            cluster.spawn(NodeClass::Transient, move |node| loop {
                match node.recv() {
                    Ok(Incoming::App(env)) => {
                        if let Ping::Token(p) = env.msg {
                            black_box(p.len());
                            let _ = node.send(root, Ping::Ack);
                        }
                    }
                    Ok(Incoming::Control(_)) => {}
                    Err(_) => break,
                }
            });
        }
        let t = Instant::now();
        let sent = cluster
            .handle()
            .send_as_harness(root, Ping::Token(Values::new()));
        let finished = sent.is_ok()
            && done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .is_ok();
        let elapsed = t.elapsed();
        let messages = cluster.stats().messages;
        cluster.abort_all();
        finished.then(|| elapsed.as_nanos() as f64 / messages.max(1) as f64)
    });
    if let Some(ns) = ctx
        .ops
        .call("simnet thread probe", ns.ok_or("did not converge"))
    {
        layers.set("simnet.thread_ns_per_msg", ns);
    }
}

/// `simnet.event_ns_per_msg`: the same broadcast/ack rounds on a
/// 1 000-node discrete-event `SimCluster`.
pub fn simnet_events(ctx: &mut Ctx, layers: &mut Layers) {
    let nodes: u32 = if ctx.sizes.probe_divisor > 1 {
        50
    } else {
        1_000
    };
    let rounds = scaled(ctx, 150).max(2) as u32;
    let ns = ctx.tracer.span("probe.simnet.events", |_| {
        let mut sim: SimCluster<Ping> = SimCluster::new();
        sim.set_link_latency(SimDuration::from_millis(1));
        let (mut acks, mut round) = (0, 0);
        let root = sim.add_node(
            NodeClass::Reliable,
            FnNode::new(move |node, _from, msg: Ping| {
                if let Ping::Ack = msg {
                    acks += 1;
                    if acks < nodes - 1 {
                        return;
                    }
                    acks = 0;
                    round += 1;
                    if round == rounds {
                        return;
                    }
                }
                for i in 1..nodes {
                    let _ = node.send(NodeId(i), Ping::Token(Values::new()));
                }
            }),
        );
        for _ in 1..nodes {
            sim.add_node(
                NodeClass::Transient,
                FnNode::new(move |node, _from, msg: Ping| {
                    if let Ping::Token(_) = msg {
                        let _ = node.send(NodeId(0), Ping::Ack);
                    }
                }),
            );
        }
        let t = Instant::now();
        let _ = sim.send_as_harness(root, Ping::Token(Values::new()));
        sim.run_until_idle();
        t.elapsed().as_nanos() as f64 / sim.stats().messages.max(1) as f64
    });
    layers.set("simnet.event_ns_per_msg", ns);
}

/// `simtime.queue_ns_per_event`: schedule then pop a million events at
/// scattered instants.
pub fn simtime(ctx: &mut Ctx, layers: &mut Layers) {
    let events = scaled(ctx, 1_000_000);
    let ns = ctx.tracer.span("probe.simtime.queue", |_| {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..events as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            queue.schedule(SimTime::from_millis(x % 86_400_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, e)) = queue.pop() {
            sum = sum.wrapping_add(e);
        }
        black_box(sum);
        t.elapsed().as_nanos() as f64 / events as f64
    });
    layers.set("simtime.queue_ns_per_event", ns);
}

/// `perfmodel.scaling_curve_us_per_point`: the analytic Fig. 15 curve.
pub fn perfmodel(ctx: &mut Ctx, layers: &mut Layers) {
    let machines: Vec<u32> = (2..=7).map(|p| 1 << p).collect();
    let iters = scaled(ctx, 100_000);
    let ns = ctx.tracer.span("probe.perfmodel.scaling_curve", |_| {
        ns_per_iter(iters, |_| {
            black_box(scaling_curve(
                ClusterSpec::cluster_a(),
                presets::mf_netflix_rank1000(),
                black_box(&machines),
            ));
        })
    });
    layers.set(
        "perfmodel.scaling_curve_us_per_point",
        ns / 1e3 / machines.len() as f64,
    );
}

/// Price histories for the paper's markets and beta trained on their
/// first [`TRAIN_DAYS`] days — what every market probe runs against —
/// with `market.gen_us_per_market_day` and `bidbrain.beta_train_ms`
/// measured on the way.
pub fn market_env(
    ctx: &mut Ctx,
    layers: &mut Layers,
    history: u64,
    model: &MarketModel,
) -> (TraceSet, BetaEstimator) {
    let markets = catalog::paper_markets();
    let days = TRAIN_DAYS + 1;
    let t = Instant::now();
    let traces = ctx.tracer.span("probe.market.generate_set", |_| {
        TraceGenerator::new(history, model.clone())
            .generate_set(&markets, SimDuration::from_hours(24 * days))
    });
    layers.set(
        "market.gen_us_per_market_day",
        t.elapsed().as_secs_f64() * 1e6 / (markets.len() as u64 * days) as f64,
    );
    let t = Instant::now();
    let beta = ctx.tracer.span("probe.bidbrain.beta_train", |_| {
        train_beta(&traces, &markets)
    });
    layers.set("bidbrain.beta_train_ms", t.elapsed().as_secs_f64() * 1e3);
    (traces, beta)
}

/// Beta trained the way every crate trains it: hour-long holdings every
/// 30 minutes of the first [`TRAIN_DAYS`] days, default bid deltas.
pub fn train_beta(traces: &TraceSet, markets: &[MarketKey]) -> BetaEstimator {
    let mut beta = BetaEstimator::new();
    for k in markets {
        if let Some(trace) = traces.get(k) {
            beta.train(
                *k,
                trace,
                SimTime::EPOCH,
                SimTime::from_hours(24 * TRAIN_DAYS),
                SimDuration::from_mins(30),
                &BetaEstimator::default_deltas(),
            );
        }
    }
    beta
}

/// `market.advance_us_per_step` and `market.request_us`: a provider
/// holding 8 spot allocations stepped in BidBrain's 120-second steps
/// across the training days, then request + terminate pairs.
pub fn market(ctx: &mut Ctx, layers: &mut Layers, traces: &TraceSet) {
    let markets = catalog::paper_markets();
    let steps = scaled(ctx, (TRAIN_DAYS * 24 * 30) as usize);
    let pairs = scaled(ctx, 20_000);
    let out = ctx.tracer.span("probe.market.provider", |_| {
        let mut provider = CloudProvider::new(traces);
        // Bid far above any spike so the holdings survive the whole
        // stepping window and every step does the same bookkeeping.
        let bid = |m: &MarketKey| m.instance_type().on_demand_price * 20.0;
        for m in &markets {
            provider.request_spot(*m, 2, bid(m)).ok()?;
        }
        let mut now = provider.now();
        let step = SimDuration::from_secs(120);
        let mut events = 0usize;
        let advance = ns_per_iter(steps, |_| {
            now += step;
            events += provider.advance_to(now).map_or(0, |e| e.len());
        });
        black_box(events);
        let m = markets[0];
        let mut granted = 0;
        let request = ns_per_iter(pairs, |_| {
            if let Ok(grant) = provider.request_spot(m, 1, bid(&m)) {
                granted += usize::from(provider.terminate(grant.id).is_ok());
            }
        });
        (granted == pairs).then_some((advance, request))
    });
    if let Some((advance, request)) = ctx.ops.call("market probe", out.ok_or("request refused")) {
        layers.set("market.advance_us_per_step", advance / 1e3);
        layers.set("market.request_us", request / 1e3);
    }
}

/// `bidbrain.ranked_us_per_call`, `bidbrain.evaluate_ns` and (when the
/// workload forecasts) `bidbrain.forecast_observe_ns`: a session-sized
/// brain ranking all 8 markets x default deltas over a 3-allocation
/// footprint.
pub fn bidbrain(
    ctx: &mut Ctx,
    layers: &mut Layers,
    traces: &TraceSet,
    beta: &BetaEstimator,
    forecast: bool,
) {
    let markets = catalog::paper_markets();
    let at = SimTime::from_hours(24 * TRAIN_DAYS);
    let prices: Vec<(MarketKey, f64)> = markets
        .iter()
        .filter_map(|m| Some((*m, traces.get(m)?.price_at(at))))
        .collect();
    let brain = BidBrain::new(
        AppParams::default(),
        beta,
        BidBrainConfig {
            target_cores: 48,
            max_alloc_instances: 4,
            ..BidBrainConfig::default()
        },
    );
    let spot = |m: MarketKey, price: f64| AllocView {
        market: m,
        count: 2,
        hourly_price: price,
        bid_delta: Some(0.01),
        time_remaining: SimDuration::from_mins(40),
        work_rate: f64::from(m.instance_type().vcpus),
    };
    let footprint = vec![
        AllocView::on_demand(markets[0], 1, f64::from(markets[0].instance_type().vcpus)),
        spot(prices[1].0, prices[1].1),
        spot(prices[2].0, prices[2].1),
    ];
    let calls = scaled(ctx, 20_000);
    let ranked = ctx.tracer.span("probe.bidbrain.ranked_acquisitions", |_| {
        ns_per_iter(calls, |_| {
            black_box(brain.ranked_acquisitions(black_box(&footprint), &prices, at));
        })
    });
    layers.set("bidbrain.ranked_us_per_call", ranked / 1e3);
    let evals = scaled(ctx, 1_000_000);
    let evaluate = ctx.tracer.span("probe.bidbrain.evaluate", |_| {
        ns_per_iter(evals, |_| {
            black_box(brain.evaluate(black_box(&footprint), false));
        })
    });
    layers.set("bidbrain.evaluate_ns", evaluate);
    if forecast {
        let (m, _) = prices[0];
        let Some(trace) = traces.get(&m) else { return };
        let bid = m.instance_type().on_demand_price;
        let samples = scaled(ctx, 400_000);
        let observe = ctx.tracer.span("probe.bidbrain.forecast_observe", |_| {
            let mut forecaster = PreemptionForecaster::new(ForecastConfig::default());
            ns_per_iter(samples, |i| {
                let now = SimTime::from_millis(i as u64 * 120_000);
                black_box(forecaster.observe(m, bid, now, trace.price_at(now)));
            })
        });
        layers.set("bidbrain.forecast_observe_ns", observe);
    }
}

/// `obs.record_ns_per_event`, `obs.counter_ns_per_add`,
/// `obs.jsonl_ns_per_event` on the recorder's hottest event.
pub fn obs(ctx: &mut Ctx, layers: &mut Layers) {
    let events = scaled(ctx, 300_000);
    let market: Arc<str> = Arc::from("c4.xlarge@zone-0");
    let out = ctx.tracer.span("probe.obs.recorder", |_| {
        let rec = Recorder::new();
        let record = ns_per_iter(events, |i| {
            rec.record(
                SimTime::from_millis(i as u64),
                Event::Market(MarketEvent::PriceMove {
                    market: Arc::clone(&market),
                    price: 0.05 + i as f64 * 1e-9,
                }),
            );
        });
        let counter = ns_per_iter(events, |_| rec.counter_add("probe.counter", 1));
        let t = Instant::now();
        let bytes = black_box(rec.to_jsonl()).len();
        let jsonl = t.elapsed().as_nanos() as f64 / events as f64;
        (record, counter, jsonl, bytes)
    });
    ctx.ops
        .check("obs probe exported every event", out.3 > events);
    layers.set("obs.record_ns_per_event", out.0);
    layers.set("obs.counter_ns_per_add", out.1);
    layers.set("obs.jsonl_ns_per_event", out.2);
}
