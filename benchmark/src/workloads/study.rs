//! `cost_study`: the paper's four-scheme cost comparison (Figs. 8/9) at
//! the paper's 1 000 random starts — `costsim::JobSim` over the market
//! and BidBrain, with no AgileML, parameter server or simnet at all.

use std::time::Instant;

use proteus_costsim::{SchemeKind, StudyConfig, StudyEnv, StudyExecutor, StudyResult};
use proteus_market::MarketModel;

use crate::inputs::{self, Fingerprint, STUDY_EVAL_DAYS, STUDY_HISTORY, TRAIN_DAYS};
use crate::probes;
use crate::run::{timed, Ctx, Layers, Rep};
use crate::stats::Summary;

/// `nproc` of the box the baseline was recorded on; fixed so the load
/// does not follow the machine.
const THREADS: usize = 2;

const SCHEMES: f64 = 4.0;

/// The two halves of the study: many short jobs, fewer long ones.
struct Envs {
    short: StudyEnv,
    long: StudyEnv,
}

impl Envs {
    /// Nominal job-hours one four-scheme comparison of both halves
    /// simulates.
    fn job_hours(&self) -> f64 {
        SCHEMES * (self.short.starts.len() as f64 * 2.0 + self.long.starts.len() as f64 * 20.0)
    }
}

fn env(ctx: &mut Ctx, job_hours: f64, starts: usize) -> StudyEnv {
    let seed = ctx.seed;
    let mut env = ctx.tracer.span("costsim.env_new", |_| {
        StudyEnv::new(StudyConfig {
            seed: STUDY_HISTORY,
            train_days: TRAIN_DAYS,
            eval_days: STUDY_EVAL_DAYS,
            // Replaced below; one keeps `new` from sampling 1 000
            // starts that are then thrown away.
            starts: 1,
            job_hours,
            market_model: MarketModel::default(),
            max_job_hours: 96.0,
            market_faults: None,
        })
    });
    // The fixed history, entered at this run's own random instants.
    env.starts = inputs::study_starts(seed, starts, job_hours > 2.0);
    ctx.tracer.span("costsim.baseline", |_| {
        env.on_demand_baseline();
    });
    env
}

fn build(ctx: &mut Ctx) -> Envs {
    let (short, long) = (ctx.sizes.study_starts_2h, ctx.sizes.study_starts_20h);
    Envs {
        short: env(ctx, 2.0, short),
        long: env(ctx, 20.0, long),
    }
}

/// The Proteus scheme's cost as a percentage of all-on-demand.
fn proteus_pct(results: &[StudyResult]) -> Option<f64> {
    let label = SchemeKind::paper_proteus().label();
    results
        .iter()
        .find(|r| r.scheme == label)
        .map(|r| r.cost_pct_of_on_demand)
}

/// Every number of both result sets, folded to the exact-match form.
fn exact(short: &[StudyResult], long: &[StudyResult]) -> Vec<(&'static str, f64)> {
    let mut fp = Fingerprint::default();
    for r in short.iter().chain(long) {
        for v in [
            r.mean_cost,
            r.cost_p10,
            r.cost_p90,
            r.cost_pct_of_on_demand,
            r.mean_runtime_hours,
            r.mean_evictions,
            r.usage.on_demand_hours,
            r.usage.spot_paid_hours,
            r.usage.free_hours,
            r.completion_rate,
        ] {
            fp.add(v.to_bits());
        }
    }
    let bits = fp.value();
    vec![
        ("proteus_pct_2h", proteus_pct(short).unwrap_or(f64::NAN)),
        ("proteus_pct_20h", proteus_pct(long).unwrap_or(f64::NAN)),
        // Two exactly representable halves of the 64-bit fingerprint.
        ("results_fingerprint_hi", (bits >> 32) as f64),
        ("results_fingerprint_lo", (bits & 0xffff_ffff) as f64),
    ]
}

pub fn rep(ctx: &mut Ctx) -> Option<Rep> {
    let setup = Instant::now();
    let envs = build(ctx);
    let setup_s = setup.elapsed().as_secs_f64();

    let exec = StudyExecutor::new(THREADS);
    let ((short, long), wall_s, cpu_s) = timed(|| {
        let short = ctx.tracer.span("costsim.comparison_2h", |_| {
            envs.short.run_comparison_with(&exec)
        });
        let long = ctx.tracer.span("costsim.comparison_20h", |_| {
            envs.long.run_comparison_with(&exec)
        });
        (short, long)
    });

    let pct = match (proteus_pct(&short), proteus_pct(&long)) {
        (Some(a), Some(b)) => (a + b) / 2.0,
        _ => f64::NAN,
    };
    ctx.ops.check(
        "every scheme completed every job at a finite, positive cost",
        short
            .iter()
            .chain(&long)
            .all(|r| r.completion_rate == 1.0 && r.mean_cost.is_finite() && r.mean_cost > 0.0)
            && pct.is_finite(),
    );
    Some(Rep {
        setup_s,
        wall_s,
        cpu_s,
        units: envs.job_hours(),
        outcome_ratio: pct / 100.0,
        exact: exact(&short, &long),
        layer: vec![("costsim.cost_pct_of_on_demand", pct)],
    })
}

/// The study on one thread must give what it gave on two.
pub fn verify_once(ctx: &mut Ctx, first: &[(&'static str, f64)]) {
    let envs = build(ctx);
    let serial = StudyExecutor::new(1);
    let got = exact(
        &envs.short.run_comparison_with(&serial),
        &envs.long.run_comparison_with(&serial),
    );
    ctx.ops.check(
        "study results equal on 1 and 2 executor threads",
        got.len() == first.len()
            && got
                .iter()
                .zip(first)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
    );
}

pub fn layers(ctx: &mut Ctx, reps: &[Rep], layers: &mut Layers) {
    layers.set_rep_median("costsim.cost_pct_of_on_demand", reps);
    if let Some(s) = Summary::of(&ctx.tracer.millis_of("costsim.baseline")) {
        layers.set("costsim.baseline_ms", s.median);
    }

    let envs = build(ctx);
    let exec = StudyExecutor::new(THREADS);
    let short_hours = envs.short.starts.len() as f64 * 2.0;
    for (metric, kind) in [
        (
            "costsim.on_demand_us_per_job_hour",
            SchemeKind::AllOnDemand { machines: 128 },
        ),
        (
            "costsim.checkpoint_us_per_job_hour",
            SchemeKind::paper_checkpoint(),
        ),
        (
            "costsim.agileml_us_per_job_hour",
            SchemeKind::paper_standard_agileml(),
        ),
        (
            "costsim.proteus_us_per_job_hour",
            SchemeKind::paper_proteus(),
        ),
    ] {
        let t = Instant::now();
        ctx.tracer.span("probe.costsim.run_scheme", |_| {
            std::hint::black_box(envs.short.run_scheme_with(kind, &exec));
        });
        layers.set(metric, t.elapsed().as_secs_f64() * 1e6 / short_hours);
    }

    // Base: the same comparison on one thread; 2.0 is ideal.
    let wall = |exec: &StudyExecutor| {
        let t = Instant::now();
        std::hint::black_box(envs.short.run_comparison_with(exec));
        t.elapsed().as_secs_f64()
    };
    let serial = ctx
        .tracer
        .span("probe.costsim.serial", |_| wall(&StudyExecutor::new(1)));
    let parallel = ctx.tracer.span("probe.costsim.parallel", |_| wall(&exec));
    layers.set("costsim.threads_speedup", serial / parallel);

    // Recording on against off, interleaved, on the long half, where
    // per-job recorder set-up amortizes over a realistic job length.
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    let mut recorders = Vec::new();
    let pairs = if ctx.sizes.probe_divisor > 1 { 1 } else { 2 };
    ctx.tracer.span("probe.obs.on_overhead", |_| {
        for _ in 0..pairs {
            let t = Instant::now();
            let plain = envs.long.run_comparison_with(&exec);
            off = off.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let (recorded, recs) = envs.long.run_comparison_recorders(&exec);
            on = on.min(t.elapsed().as_secs_f64());
            ctx.ops.check(
                "recording leaves the study results unchanged",
                plain == recorded,
            );
            recorders = recs;
        }
    });
    layers.set("obs.on_overhead_pct", 100.0 * (on - off) / off);
    probes::obs(ctx, layers);
    // The study's own export replaces the synthetic probe's figure.
    let events: usize = recorders.iter().map(|r| r.timeline().len()).sum();
    layers.set("obs.events", events as f64);
    let t = Instant::now();
    let mut jsonl = String::new();
    for rec in &recorders {
        rec.append_jsonl(&mut jsonl);
    }
    layers.set(
        "obs.jsonl_ns_per_event",
        t.elapsed().as_nanos() as f64 / events.max(1) as f64,
    );

    let (traces, beta) = probes::market_env(ctx, layers, STUDY_HISTORY, &MarketModel::default());
    probes::market(ctx, layers, &traces);
    probes::bidbrain(ctx, layers, &traces, &beta, false);
}
