//! `train_mf`, `train_mlr`, `train_elastic`: an AgileML job driven
//! directly, with no market or BidBrain in the loop.

use std::time::Instant;

use proteus_agileml::{AgileConfig, AgileMlJob, JobEvent};
use proteus_mlapps::app::MlApp;
use proteus_simnet::{NodeClass, NodeId};

use crate::inputs;
use crate::probes;
use crate::run::{timed, Ctx, Layers, Ops, Rep};
use crate::stats::{quantile, Summary};
use crate::trace::Tracer;

fn agile_config(seed: u64) -> AgileConfig {
    AgileConfig {
        seed: inputs::model_seed(seed),
        ..AgileConfig::default()
    }
}

pub fn rep_mf(ctx: &mut Ctx) -> Option<Rep> {
    let (shape, clocks) = (ctx.sizes.mf, ctx.sizes.mf_clocks);
    rep_steady(ctx, |seed| inputs::mf_problem(seed, shape), clocks)
}

pub fn rep_mlr(ctx: &mut Ctx) -> Option<Rep> {
    let (shape, clocks) = (ctx.sizes.mlr, ctx.sizes.mlr_clocks);
    rep_steady(ctx, |seed| inputs::mlr_problem(seed, shape), clocks)
}

/// Steady-state training on 1 reliable + 3 transient machines (stage
/// 2), no churn: times `clocks` training clocks after the warm ones.
fn rep_steady<A: MlApp + Clone>(
    ctx: &mut Ctx,
    make: impl FnOnce(u64) -> (A, Vec<A::Datum>),
    clocks: u64,
) -> Option<Rep> {
    let Ctx {
        seed,
        sizes,
        tracer,
        ops,
    } = ctx;
    let warm = sizes.warm_clocks;
    let setup = Instant::now();
    let (app, data) = tracer.span("mlapps.data_gen", |_| make(*seed));
    let launch = tracer.span("agileml.launch", |_| {
        AgileMlJob::launch(app, data.clone(), agile_config(*seed), 1, 3)
    });
    let mut job = ops.call("launch", launch)?;
    let initial = ops.call("initial objective", job.objective(&data));
    ops.call("warm clocks", job.wait_clock(warm));
    let setup_s = setup.elapsed().as_secs_f64();

    let target = warm + clocks;
    let (reached, wall_s, cpu_s) = timed(|| {
        if tracer.enabled() {
            // One wait, and so one span, per clock: the per-clock
            // latency distribution costs a driver wake-up per clock,
            // which the plain pass does not pay.
            (warm + 1..=target).all(|c| {
                let waited = tracer.span("agileml.wait_clock", |_| job.wait_clock(c));
                ops.call("wait_clock", waited).is_some()
            })
        } else {
            ops.call("wait_clock", job.wait_clock(target)).is_some()
        }
    });

    let mut rep = Rep {
        setup_s,
        wall_s,
        cpu_s,
        units: clocks as f64,
        ..Rep::default()
    };
    let status = ops.call("status", job.status());
    let net = job.net_stats();
    ops.check(
        "training reached the planned clock",
        reached && status.as_ref().is_some_and(|s| s.min_clock >= target),
    );
    if let Some(s) = &status {
        rep.layer.push((
            "simnet.msgs_per_clock",
            net.messages as f64 / s.min_clock.max(1) as f64,
        ));
    }
    rep.layer.push(("simnet.dropped", net.dropped as f64));
    let last = tracer.span("agileml.objective", |_| job.objective(&data));
    finish_training(ops, tracer, job, initial, last, &mut rep);
    Some(rep)
}

/// Shared tail of a training rep: objective checks, one model snapshot
/// (what a checkpoint fetches) and shutdown.
fn finish_training<A: MlApp>(
    ops: &mut Ops,
    tracer: &mut Tracer,
    job: AgileMlJob<A>,
    initial: Option<f64>,
    last: Result<f64, proteus_agileml::JobError>,
    rep: &mut Rep,
) {
    let last = ops.call("final objective", last);
    if let (Some(first), Some(last)) = (initial, last) {
        rep.outcome_ratio = last / first;
        ops.check(
            "objective finite and lower than at the start",
            first.is_finite() && last.is_finite() && rep.outcome_ratio < 1.0,
        );
        rep.layer
            .push(("agileml.objective_ratio", rep.outcome_ratio));
    }
    let snap = tracer.span("agileml.snapshot", |_| job.snapshot());
    ops.call("snapshot", snap);
    let stopped = tracer.span("agileml.shutdown", |_| job.shutdown());
    ops.call("shutdown", stopped);
}

/// Drives a job through scripted elasticity cycles while counting real
/// progress.
///
/// `AgileMlJob::wait_clock(c)` is satisfied by any `ClockAdvanced` at
/// or above `c` already in the job's event log, and the job keeps
/// training while a transition is handled, so a fixed clock schedule
/// silently waits for nothing on some cycles. Each wait here targets
/// the highest clock seen so far plus `n`: clocks nobody has seen yet.
struct ElasticDriver {
    /// Events of the job's log already folded into `high`.
    cursor: usize,
    /// Highest `ClockAdvanced` seen.
    high: u64,
    /// Clocks lost to rollbacks: highest seen minus the clock
    /// `fail_nodes` rolled back to, summed.
    redone: u64,
    /// Waits that really waited for `n` new clocks.
    waits: u64,
}

impl ElasticDriver {
    fn new() -> Self {
        ElasticDriver {
            cursor: 0,
            high: 0,
            redone: 0,
            waits: 0,
        }
    }

    fn observe<A: MlApp>(&mut self, job: &mut AgileMlJob<A>) {
        let log = job.events();
        for e in &log[self.cursor..] {
            if let JobEvent::ClockAdvanced { min } = e {
                self.high = self.high.max(*min);
            }
        }
        self.cursor = log.len();
    }

    fn advance<A: MlApp>(&mut self, job: &mut AgileMlJob<A>, ops: &mut Ops, n: u64) -> bool {
        self.observe(job);
        let target = self.high + n;
        let ok = ops.call("wait_clock", job.wait_clock(target)).is_some();
        self.observe(job);
        if ok && self.high >= target {
            self.waits += 1;
        }
        ok
    }

    /// One cycle: add two transient machines, two clocks, remove the
    /// pair (warned eviction on even cycles, abrupt failure with
    /// rollback on odd ones; `pre_drain` first when asked), two clocks.
    fn cycle<A: MlApp>(
        &mut self,
        job: &mut AgileMlJob<A>,
        ops: &mut Ops,
        tracer: &mut Tracer,
        index: u32,
        pre_drain: bool,
    ) -> bool {
        let added = tracer.span("agileml.add_machines", |_| {
            job.add_machines(NodeClass::Transient, 2)
        });
        let Some(added): Option<Vec<NodeId>> = ops.call("add_machines", added) else {
            return false;
        };
        if !self.advance(job, ops, 2) {
            return false;
        }
        let removed = if index.is_multiple_of(2) {
            if pre_drain {
                let drained = tracer.span("agileml.pre_drain", |_| job.pre_drain(&added));
                if ops.call("pre_drain", drained).is_none() || !self.advance(job, ops, 1) {
                    return false;
                }
            }
            let evicted = tracer.span("agileml.evict_warned", |_| job.evict_with_warning(&added));
            ops.call("evict_with_warning", evicted).is_some()
        } else {
            self.observe(job);
            let before = self.high;
            let rolled = tracer.span("agileml.fail_rollback", |_| job.fail_nodes(&added));
            match ops.call("fail_nodes", rolled) {
                Some(clock) => {
                    self.redone += before.saturating_sub(clock);
                    true
                }
                None => false,
            }
        };
        removed && self.advance(job, ops, 2)
    }
}

/// The `train_mf` job started on 1 reliable + 1 transient machine and
/// put through `elastic_cycles` scripted cycles.
pub fn rep_elastic(ctx: &mut Ctx) -> Option<Rep> {
    let Ctx {
        seed,
        sizes,
        tracer,
        ops,
    } = ctx;
    let cycles = sizes.elastic_cycles;
    let setup = Instant::now();
    let (app, data) = tracer.span("mlapps.data_gen", |_| inputs::mf_problem(*seed, sizes.mf));
    let launch = tracer.span("agileml.launch", |_| {
        AgileMlJob::launch(app, data.clone(), agile_config(*seed), 1, 1)
    });
    let mut job = ops.call("launch", launch)?;
    let initial = ops.call("initial objective", job.objective(&data));
    ops.call("warm clocks", job.wait_clock(sizes.warm_clocks));
    let setup_s = setup.elapsed().as_secs_f64();

    let mut driver = ElasticDriver::new();
    let (done, wall_s, cpu_s) = timed(|| {
        (0..cycles)
            .take_while(|&c| driver.cycle(&mut job, ops, tracer, c, false))
            .count() as u32
    });

    let mut rep = Rep {
        setup_s,
        wall_s,
        cpu_s,
        units: f64::from(cycles),
        ..Rep::default()
    };
    let status = ops.call("status", job.status());
    ops.check(
        "every cycle ran and every wait saw two new clocks",
        done == cycles
            && driver.waits == 2 * u64::from(cycles)
            && status.is_some_and(|s| s.min_clock >= driver.high),
    );
    rep.layer
        .push(("agileml.clocks_redone", driver.redone as f64));
    rep.layer
        .push(("simnet.dropped", job.net_stats().dropped as f64));
    let last = tracer.span("agileml.objective", |_| job.objective(&data));
    finish_training(ops, tracer, job, initial, last, &mut rep);
    Some(rep)
}

/// Unit costs of AgileML's transitions on `shape`, for workloads that
/// cannot see inside the job they run (sessions): a short scripted job
/// with a span per transition, including the pre-drain that only
/// forecasting sessions issue, under the job configuration `cfg` the
/// workload itself uses. Leaves the spans `agileml_layers` reads.
pub fn elastic_probe(ctx: &mut Ctx, shape: inputs::MfShape, cfg: AgileConfig) {
    let Ctx {
        seed,
        sizes,
        tracer,
        ops,
    } = ctx;
    let (app, data) = inputs::mf_problem(*seed, shape);
    let launch = tracer.span("agileml.launch", |_| {
        AgileMlJob::launch(app, data, cfg, 1, 1)
    });
    let Some(mut job) = ops.call("probe launch", launch) else {
        return;
    };
    let mut driver = ElasticDriver::new();
    for c in 0..sizes.probe_cycles {
        if !driver.cycle(&mut job, ops, tracer, c, true) {
            break;
        }
        let snap = tracer.span("agileml.snapshot", |_| job.snapshot());
        ops.call("probe snapshot", snap);
    }
    let stopped = tracer.span("agileml.shutdown", |_| job.shutdown());
    ops.call("probe shutdown", stopped);
}

/// `agileml.*` latencies from whatever spans the tracer holds.
pub fn agileml_layers(tracer: &Tracer, layers: &mut Layers) {
    let median = |name: &str| Summary::of(&tracer.millis_of(name)).map(|s| s.median);
    let p90 = |name: &str| quantile(&tracer.millis_of(name), 0.9);
    let mut set = |metric: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            layers.set(metric, v);
        }
    };
    set("agileml.launch_ms", median("agileml.launch"));
    set("agileml.clock_ms_p50", median("agileml.wait_clock"));
    set("agileml.clock_ms_p90", p90("agileml.wait_clock"));
    set(
        "agileml.add_machines_p50_ms",
        median("agileml.add_machines"),
    );
    set("agileml.add_machines_p90_ms", p90("agileml.add_machines"));
    set(
        "agileml.evict_warned_p50_ms",
        median("agileml.evict_warned"),
    );
    set("agileml.evict_warned_p90_ms", p90("agileml.evict_warned"));
    set(
        "agileml.fail_rollback_p50_ms",
        median("agileml.fail_rollback"),
    );
    set("agileml.fail_rollback_p90_ms", p90("agileml.fail_rollback"));
    set("agileml.predrain_p50_ms", median("agileml.pre_drain"));
    set("agileml.snapshot_ms", median("agileml.snapshot"));
    set("agileml.shutdown_ms", median("agileml.shutdown"));
    let transitions: Vec<f64> = [
        "agileml.add_machines",
        "agileml.evict_warned",
        "agileml.fail_rollback",
    ]
    .iter()
    .flat_map(|n| tracer.millis_of(n))
    .collect();
    set(
        "agileml.transition_p50_ms",
        Summary::of(&transitions).map(|s| s.median),
    );
}

/// Per-layer metrics of the three training workloads.
pub fn layers(workload: &str, ctx: &mut Ctx, reps: &[Rep], layers: &mut Layers) {
    for name in [
        "simnet.msgs_per_clock",
        "simnet.dropped",
        "agileml.clocks_redone",
        "agileml.objective_ratio",
    ] {
        layers.set_rep_median(name, reps);
    }
    let mlr = workload == "train_mlr";
    if workload == "train_elastic" {
        // The timed cycles never pre-drain; take that latency from the
        // scripted probe on the same shape.
        elastic_probe(ctx, ctx.sizes.mf, agile_config(ctx.seed));
    }
    agileml_layers(ctx.tracer, layers);
    if let Some(s) = Summary::of(&ctx.tracer.millis_of("mlapps.data_gen")) {
        layers.set("mlapps.data_gen_ms", s.median);
    }
    let seq_ms = probes::mlapps(ctx, layers, mlr);
    if let (Some(clock), Some(seq)) = (layers.get("agileml.clock_ms_p50"), seq_ms) {
        // Base: one pass of the plain single-worker trainer over the
        // same data; above 1 the four-machine job is slower per pass.
        layers.set("agileml.clock_ms_over_seq_iter", clock / seq);
    }
    probes::ps(ctx, layers, if mlr { 512 } else { 16 });
    probes::simnet_threads(ctx, layers, if mlr { 512 } else { 16 });
    if workload == "train_mf" {
        // Layers no workload exercises yet; measured once, here, so a
        // later change that starts using them has a base.
        probes::simtime(ctx, layers);
        probes::simnet_events(ctx, layers);
        probes::perfmodel(ctx, layers);
    }
}
