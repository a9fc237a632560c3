//! Fleet-scheduler scale benchmark: a 500-trial hyperparameter sweep
//! through the shared fleet vs the same trials run per-job-independent.
//! Writes the comparison to `BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p proteus-bench --bin bench_fleet
//! ```
//!
//! Three gates ride on this file (see `scripts/check.sh`):
//!
//! 1. **Scale** — the 500-trial sweep completes inside its horizon with
//!    scheduler bookkeeping (admission, ranking, preemption planning,
//!    launch walk) under [`SCHED_BUDGET_US_PER_ROUND`] of wall clock per
//!    scheduling round. Everything else the run spends — Eq. 4
//!    evaluations and market simulation — a per-job baseline pays too,
//!    so this is the true price of *global* scheduling. The budget is
//!    absolute: a share of the sweep's wall would tighten every time the
//!    rest of the sweep got faster.
//! 2. **$/work** — the fleet's realized cost-per-work must beat the
//!    per-job-independent baseline ([`SchemeKind::fleet_trial`]), where
//!    every trial holds its own dedicated reliable machine instead of a
//!    bin-packed slot on the shared pool.
//! 3. **Determinism** — the sweep outcome is bit-identical across
//!    `PROTEUS_THREADS` settings (1 vs 4 checked here).
//!
//! Knobs: `PROTEUS_BENCH_FLEET_TRIALS` (default 500).

use std::time::Instant;

use proteus_bench::header;
use proteus_bidbrain::BetaEstimator;
use proteus_costsim::{run_job, Scheme, SchemeKind, StudyExecutor};
use proteus_costsim::{JobSpec, SimOutcome};
use proteus_fleet::{run_sweep, FleetConfig, SweepConfig, SweepOutcome};
use proteus_market::{catalog, MarketKey, MarketModel, TraceGenerator, TraceSet};
use proteus_simtime::{SimDuration, SimTime};

/// Scheduler bookkeeping allowed per round, in microseconds: measured
/// 0.8–1.1 over this sweep's 263 rounds. Written to the JSON, where
/// `scripts/check.sh` reads it.
const SCHED_BUDGET_US_PER_ROUND: f64 = 3.0;

/// β-training window; the sweep starts when it ends.
const TRAIN: SimDuration = SimDuration::from_hours(12);

fn markets() -> Vec<MarketKey> {
    // The full paper market set: every round ranks each pending gang
    // across all eight markets, like the paper's BidBrain does.
    catalog::paper_markets()
}

fn traces(horizon: SimDuration) -> TraceSet {
    TraceGenerator::new(41, MarketModel::default()).generate_set(&markets(), horizon)
}

fn trained_beta(traces: &TraceSet) -> BetaEstimator {
    let mut beta = BetaEstimator::new();
    for k in &markets() {
        if let Some(trace) = traces.get(k) {
            beta.train(
                *k,
                trace,
                SimTime::EPOCH,
                SimTime::EPOCH + TRAIN,
                SimDuration::from_mins(30),
                &BetaEstimator::default_deltas(),
            );
        }
    }
    beta
}

fn sweep_cfg(trials: usize) -> SweepConfig {
    SweepConfig {
        trials,
        gang: 2,
        rungs: vec![1.0, 2.0, 4.0],
        submit_every: SimDuration::from_secs(60),
        horizon: SimDuration::from_hours(40),
        seed: 17,
        ..SweepConfig::default()
    }
}

/// The per-job-independent baseline: each trial reruns as its own
/// [`SchemeKind::fleet_trial`] job sized to the work the fleet actually
/// accrued for it, holding one dedicated reliable machine for its whole
/// life — the cost structure the shared pool amortizes away.
fn baseline_cost(sweep: &SweepOutcome, traces: &TraceSet, beta: &BetaEstimator) -> (f64, f64) {
    let od = markets()[0];
    let gang_cores = 2 * od.instance_type().vcpus;
    let jobs: Vec<f64> = sweep
        .trials
        .iter()
        .map(|t| t.work_done)
        .filter(|&w| w > 1e-6)
        .collect();
    let exec = StudyExecutor::from_env();
    let outcomes: Vec<SimOutcome> = exec.run_indexed(jobs.len(), |i| {
        let scheme = Scheme {
            kind: SchemeKind::fleet_trial(),
            job: JobSpec {
                work_core_hours: jobs[i],
                on_demand_market: od,
                on_demand_count: 1,
                on_demand_works: false,
                target_cores: gang_cores,
                standard_cores: gang_cores,
                phi_per_doubling: 0.97,
            },
        };
        // Same start and window the fleet ran, so neither side gets a
        // cheaper stretch of the price history.
        run_job(
            &scheme,
            traces,
            beta,
            SimTime::EPOCH,
            SimDuration::from_hours(40),
        )
    });
    let cost: f64 = outcomes.iter().map(|o| o.cost).sum();
    let work: f64 = jobs.iter().sum();
    (cost, work)
}

fn main() {
    let trials: usize = std::env::var("PROTEUS_BENCH_FLEET_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(500);
    header(
        "BENCH",
        "fleet: 500-trial shared-market sweep vs per-job-independent trials",
    );

    let horizon = TRAIN + SimDuration::from_hours(44);
    let traces = traces(horizon);
    let beta = trained_beta(&traces);
    let cfg = sweep_cfg(trials);
    let fleet_cfg = || {
        let mut c = FleetConfig::paper_defaults(markets());
        c.max_active_jobs = 64;
        c
    };

    // Timed run on the environment's thread count.
    let exec = StudyExecutor::from_env();
    let t = Instant::now();
    let (sweep, timing) = run_sweep(&traces, &beta, fleet_cfg(), &cfg, &exec).expect("sweep runs");
    let wall_secs = t.elapsed().as_secs_f64();
    let sched_us_per_round = timing.sched_seconds * 1e6 / timing.rounds.max(1) as f64;

    let finished = sweep
        .trials
        .iter()
        .filter(|t| t.rungs_completed == cfg.rungs.len())
        .count();
    let killed = sweep
        .trials
        .iter()
        .filter(|t| t.state == proteus_fleet::JobState::Killed)
        .count();

    // Determinism: serial vs 4 threads must agree exactly.
    let serial = run_sweep(&traces, &beta, fleet_cfg(), &cfg, &StudyExecutor::new(1))
        .expect("serial sweep")
        .0;
    let threaded = run_sweep(&traces, &beta, fleet_cfg(), &cfg, &StudyExecutor::new(4))
        .expect("threaded sweep")
        .0;
    let deterministic = serial == threaded && serial == sweep;

    let fleet_cost = sweep.fleet.total_cost;
    let fleet_work = sweep.fleet.total_work;
    let fleet_cpw = sweep.fleet.cost_per_work();
    let (base_cost, base_work) = baseline_cost(&sweep, &traces, &beta);
    let base_cpw = if base_work > 0.0 {
        base_cost / base_work
    } else {
        f64::INFINITY
    };
    let advantage = base_cpw / fleet_cpw.max(1e-12);

    println!(
        "sweep      : {trials} trials, {finished} finished, {killed} early-killed, \
         {} evictions, {} preemptions",
        sweep.fleet.evictions, sweep.fleet.preemptions
    );
    println!(
        "scheduler  : {:.2}ms bookkeeping over {} rounds = {sched_us_per_round:.3}us/round \
         (budget {SCHED_BUDGET_US_PER_ROUND}us) of {:.1}ms wall",
        timing.sched_seconds * 1e3,
        timing.rounds,
        wall_secs * 1e3
    );
    println!(
        "fleet      : ${fleet_cost:.2} for {fleet_work:.1} core-hours = ${fleet_cpw:.4}/work \
         (peak {} shared reliable machines)",
        sweep.fleet.peak_reliable_machines
    );
    println!("baseline   : ${base_cost:.2} for {base_work:.1} core-hours = ${base_cpw:.4}/work");
    println!("advantage  : {advantage:.2}x cheaper per unit work; deterministic={deterministic}");

    let json = format!(
        "{{\n  \"trials\": {trials},\n  \"finished\": {finished},\n  \"killed\": {killed},\n  \
         \"evictions\": {},\n  \"preemptions\": {},\n  \
         \"wall_secs\": {wall_secs:.4},\n  \"sched_secs\": {:.6},\n  \
         \"rounds\": {},\n  \"sched_us_per_round\": {sched_us_per_round:.4},\n  \
         \"sched_budget_us_per_round\": {SCHED_BUDGET_US_PER_ROUND},\n  \
         \"fleet_cost\": {fleet_cost:.4},\n  \"fleet_work\": {fleet_work:.4},\n  \
         \"fleet_cost_per_work\": {fleet_cpw:.6},\n  \
         \"baseline_cost\": {base_cost:.4},\n  \"baseline_cost_per_work\": {base_cpw:.6},\n  \
         \"advantage\": {advantage:.4},\n  \
         \"peak_reliable_machines\": {},\n  \"deterministic\": {deterministic}\n}}\n",
        sweep.fleet.evictions,
        sweep.fleet.preemptions,
        timing.sched_seconds,
        timing.rounds,
        sweep.fleet.peak_reliable_machines,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json");
}
