//! `fleet_sweep`: a SpotTune-style hyperparameter sweep of thousands of
//! preemptible trials through the shared-market fleet scheduler.
//!
//! All trials share one priority tier, so preemption planning is never
//! exercised: a known blind spot of this workload.
//!
//! The timed sweep runs on the serial executor. With two executor
//! threads the scheduler starts and joins a pair of threads every
//! round, which on two cores is a third to a half of the sweep's wall
//! time and is set by how fast the host wakes an idle core, not by the
//! program: the same build read 138 and 192 us per trial an hour apart
//! while the serial sweep stayed at 95. `fleet.threads_speedup` keeps
//! that ratio in sight. One thread then runs at the speed of one core,
//! so the times are scaled by `run::timed_on_one_thread`.

use std::time::Instant;

use proteus_costsim::StudyExecutor;
use proteus_fleet::{run_sweep, FleetConfig, FleetTiming, SweepConfig, SweepOutcome};
use proteus_market::{catalog, MarketModel, TraceGenerator};
use proteus_simtime::SimDuration;

use crate::inputs::{self, FLEET_HISTORY, TRAIN_DAYS};
use crate::probes;
use crate::run::{timed_on_one_thread, Ctx, Layers, OneThread, Rep};
use crate::stats::Summary;

fn sweep_config(ctx: &Ctx, trials: usize) -> SweepConfig {
    SweepConfig {
        trials,
        gang: 2,
        rungs: vec![1.0, 2.0, 4.0],
        submit_every: SimDuration::from_secs(60),
        horizon: SimDuration::from_hours(ctx.sizes.fleet_horizon_hours),
        seed: inputs::sweep_seed(ctx.seed),
        ..SweepConfig::default()
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        max_active_jobs: 64,
        ..FleetConfig::paper_defaults(catalog::paper_markets())
    }
}

/// One sweep of `trials` over freshly built traces and beta on `exec`;
/// returns set-up seconds, the outcome and the timed region's seconds.
fn sweep(
    ctx: &mut Ctx,
    trials: usize,
    exec: &StudyExecutor,
) -> Option<(f64, (SweepOutcome, FleetTiming), OneThread)> {
    let setup = Instant::now();
    let markets = catalog::paper_markets();
    let horizon = SimDuration::from_hours(24 * TRAIN_DAYS + ctx.sizes.fleet_horizon_hours + 4);
    let traces = ctx.tracer.span("market.generate_set", |_| {
        TraceGenerator::new(FLEET_HISTORY, MarketModel::default()).generate_set(&markets, horizon)
    });
    let beta = ctx.tracer.span("bidbrain.beta_train", |_| {
        probes::train_beta(&traces, &markets)
    });
    let cfg = sweep_config(ctx, trials);
    let setup_s = setup.elapsed().as_secs_f64();

    let (ran, took) = timed_on_one_thread(|| {
        ctx.tracer.span("fleet.run_sweep", |_| {
            run_sweep(&traces, &beta, fleet_config(), &cfg, exec)
        })
    });
    let out = ctx.ops.call("run_sweep", ran)?;
    Some((setup_s, out, took))
}

pub fn rep(ctx: &mut Ctx) -> Option<Rep> {
    let trials = ctx.sizes.fleet_trials;
    let (setup_s, (outcome, timing), took) = sweep(ctx, trials, &StudyExecutor::serial())?;
    let fleet = &outcome.fleet;
    ctx.ops.check(
        "every trial terminal and the fleet did work",
        outcome.trials.len() == trials
            && outcome.trials.iter().all(|t| t.state.is_terminal())
            && fleet.total_work > 0.0,
    );
    // The all-on-demand price of the same work: the anchor market's
    // hourly price spread over its cores.
    let anchor = catalog::paper_markets()[0].instance_type();
    let on_demand_per_core_hour = anchor.on_demand_price / f64::from(anchor.vcpus);
    let finished = outcome
        .trials
        .iter()
        .filter(|t| t.rungs_completed == 3)
        .count();
    let killed = outcome
        .trials
        .iter()
        .filter(|t| t.state == proteus_fleet::JobState::Killed)
        .count();
    // The scheduler's own clock is as measured; so is the wall it is a
    // share of.
    let raw_wall_s = took.wall_s / took.host_speed;
    Some(Rep {
        // Set-up ran on the same thread right before the first kernel.
        setup_s: setup_s * took.host_speed,
        wall_s: took.wall_s,
        cpu_s: took.cpu_s,
        units: trials as f64,
        outcome_ratio: fleet.cost_per_work() / on_demand_per_core_hour,
        exact: vec![
            ("total_cost", fleet.total_cost),
            ("total_work", fleet.total_work),
            ("evictions", fleet.evictions as f64),
            ("preemptions", fleet.preemptions as f64),
            ("completed", fleet.completed as f64),
            ("scheduling_rounds", fleet.scheduling_rounds as f64),
            ("finished", finished as f64),
            ("killed", killed as f64),
        ],
        layer: vec![
            ("fleet.sched_share", timing.sched_seconds / raw_wall_s),
            ("fleet.rounds", timing.rounds as f64),
            (
                "fleet.us_per_round",
                took.wall_s * 1e6 / timing.rounds.max(1) as f64,
            ),
            ("fleet.finished", finished as f64),
            ("fleet.killed", killed as f64),
            ("fleet.evictions", fleet.evictions as f64),
            ("fleet.preemptions", fleet.preemptions as f64),
            ("fleet.usd_per_core_hour", fleet.cost_per_work()),
            ("market.evictions", fleet.evictions as f64),
            ("bench.host_speed", took.host_speed),
        ],
    })
}

pub fn layers(ctx: &mut Ctx, reps: &[Rep], layers: &mut Layers) {
    for name in [
        "fleet.sched_share",
        "fleet.rounds",
        "fleet.us_per_round",
        "fleet.finished",
        "fleet.killed",
        "fleet.evictions",
        "fleet.preemptions",
        "fleet.usd_per_core_hour",
        "market.evictions",
        "bench.host_speed",
    ] {
        layers.set_rep_median(name, reps);
    }
    let full = ctx.sizes.fleet_trials;
    let full_us: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e6 / full as f64).collect();
    let full_us = Summary::of(&full_us).map_or(0.0, |s| s.median);
    // Per-trial cost at a twelfth of the size: the ratio shows how far
    // from linear the scheduler is at the benchmark's scale.
    let small = ctx.sizes.fleet_small_trials;
    if let Some((_, _, took)) = sweep(ctx, small, &StudyExecutor::serial()) {
        let small_us = took.wall_s * 1e6 / small as f64;
        layers.set("fleet.small_sweep_us_per_trial", small_us);
        layers.set("fleet.scale_ratio", full_us / small_us);
    }
    // The same sweep with the Eq. 4 fan-out on two executor threads.
    if let Some((_, _, took)) = sweep(ctx, full, &StudyExecutor::new(2)) {
        layers.set(
            "fleet.threads_speedup",
            full_us / (took.wall_s * 1e6 / full as f64),
        );
    }
    let (traces, beta) = probes::market_env(ctx, layers, FLEET_HISTORY, &MarketModel::default());
    probes::market(ctx, layers, &traces);
    probes::bidbrain(ctx, layers, &traces, &beta, false);
}
