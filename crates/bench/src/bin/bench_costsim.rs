//! Cost-study engine timing harness: serial vs parallel wall-clock for
//! the paper-scale four-scheme comparison, verifying the parallel path
//! is a pure speedup (identical results) and recording the numbers in
//! `BENCH_costsim.json` — plus an observability overhead comparison
//! (recorder attached vs detached, interleaved best-of-5) written to
//! `BENCH_obs.json`, guarding the "cheap when on, free when off"
//! contract as wall nanoseconds per recorded event against the budget
//! written beside it.
//!
//! ```text
//! cargo run --release -p proteus-bench --bin bench_costsim
//! PROTEUS_THREADS=8 cargo run --release -p proteus-bench --bin bench_costsim
//! ```

use std::time::Instant;

use proteus_bench::header;
use proteus_costsim::{StudyConfig, StudyEnv, StudyExecutor};
use proteus_market::MarketModel;

/// Wall nanoseconds one recorded event may add to a study (see the
/// gate's comment in `main`).
const OBS_BUDGET_NS_PER_EVENT: f64 = 150.0;

fn main() {
    header("BENCH", "cost-study engine: serial vs parallel");

    let starts: usize = std::env::var("PROTEUS_BENCH_STARTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let config = StudyConfig {
        seed: 1,
        train_days: 14,
        eval_days: 28,
        starts,
        job_hours: 2.0,
        market_model: MarketModel::default(),
        max_job_hours: 96.0,
        market_faults: None,
    };
    let schemes = 4usize;
    let runs = schemes * starts;

    let env = StudyEnv::new(config.clone());
    // Warm the shared on-demand baseline so neither timed path pays for
    // it (both would otherwise simulate it inside the first call).
    let _ = env.on_demand_baseline();

    let t0 = Instant::now();
    let serial = env.run_comparison_with(&StudyExecutor::serial());
    let serial_secs = t0.elapsed().as_secs_f64();
    println!("serial   : {runs} runs in {serial_secs:.2}s");

    let exec = StudyExecutor::from_env();
    let t1 = Instant::now();
    let parallel = env.run_comparison_with(&exec);
    let parallel_secs = t1.elapsed().as_secs_f64();
    let threads = exec.threads();
    println!("parallel : {runs} runs in {parallel_secs:.2}s ({threads} threads)");

    let identical = serial == parallel;
    assert!(identical, "parallel study diverged from the serial path");

    let speedup = serial_secs / parallel_secs.max(1e-9);
    let runs_per_sec = runs as f64 / parallel_secs.max(1e-9);
    println!("speedup  : {speedup:.2}x  ({runs_per_sec:.1} runs/sec)");
    for r in &parallel {
        println!(
            "  {:<22} mean ${:>7.2}  ({:>5.1}% of on-demand)",
            r.scheme, r.mean_cost, r.cost_pct_of_on_demand
        );
    }

    let json = format!(
        "{{\n  \"starts\": {starts},\n  \"schemes\": {schemes},\n  \"runs\": {runs},\n  \
         \"serial_secs\": {serial_secs:.3},\n  \"parallel_secs\": {parallel_secs:.3},\n  \
         \"threads\": {threads},\n  \"speedup\": {speedup:.3},\n  \
         \"runs_per_sec\": {runs_per_sec:.1},\n  \"identical\": {identical}\n}}\n"
    );
    std::fs::write("BENCH_costsim.json", &json).expect("write BENCH_costsim.json");
    println!("\nwrote BENCH_costsim.json");

    // ------------------------------------------------------------------
    // Observability overhead: the four-scheme comparison with a per-job
    // recorder live vs without one, on the paper's 20-hour jobs
    // (Fig. 10) so per-run recorder setup amortizes over a realistic
    // job length. Best-of-5 per side damps wall-clock noise; both sides
    // use the parallel executor so the measurement matches how studies
    // actually run. The one-shot JSONL export is timed separately — it
    // is paid once per study, not per step, and only when an export was
    // requested.
    // ------------------------------------------------------------------
    println!();
    let obs_starts = starts.min(25);
    let obs_runs = schemes * obs_starts;
    let env20 = StudyEnv::new(StudyConfig {
        job_hours: 20.0,
        starts: obs_starts,
        ..config
    });
    let _ = env20.on_demand_baseline();
    let baseline = env20.run_comparison_with(&exec);
    // Interleave the reps (off, on, off, on, …) so thermal and
    // scheduler drift hits both sides equally; keep the best of each.
    let mut off_secs = f64::INFINITY;
    let mut on_secs = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let _ = env20.run_comparison_with(&exec);
        off_secs = off_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let _ = env20.run_comparison_recorders(&exec);
        on_secs = on_secs.min(t.elapsed().as_secs_f64());
    }
    let (recorded, recorders) = env20.run_comparison_recorders(&exec);
    let passive = recorded == baseline;
    assert!(passive, "recording perturbed the study results");
    let t2 = Instant::now();
    let mut jsonl = String::new();
    for rec in &recorders {
        rec.append_jsonl(&mut jsonl);
    }
    let export_secs = t2.elapsed().as_secs_f64();
    let events = jsonl.lines().count();
    let overhead_secs = (on_secs - off_secs).max(0.0);
    let overhead_pct = 100.0 * overhead_secs / off_secs.max(1e-9);
    // The gate is absolute. As a share of the study's wall clock the
    // same recording cost reads 3 % of a 0.07 s study and 10 % of a
    // 0.025 s one, so the share fails whenever the simulation it
    // instruments gets faster. A record is one lock and one push
    // (~70 ns, `obs.record_ns_per_event` in `benchmark/`); the budget
    // is about twice that, so a format or an allocation per event
    // still fails it.
    let ns_per_event = overhead_secs * 1e9 / events.max(1) as f64;
    println!("obs off  : {obs_runs} runs (20h jobs) in {off_secs:.3}s (best of 5)");
    println!("obs on   : {obs_runs} runs (20h jobs) in {on_secs:.3}s (best of 5, {events} events)");
    println!(
        "overhead : {ns_per_event:.1} ns/event (budget {OBS_BUDGET_NS_PER_EVENT}), \
         {overhead_pct:.2}% of this study  (+ one-shot JSONL export: {export_secs:.3}s)"
    );

    let json = format!(
        "{{\n  \"runs\": {obs_runs},\n  \"job_hours\": 20.0,\n  \
         \"obs_off_secs\": {off_secs:.3},\n  \
         \"obs_on_secs\": {on_secs:.3},\n  \"overhead_pct\": {overhead_pct:.2},\n  \
         \"ns_per_event\": {ns_per_event:.1},\n  \
         \"budget_ns_per_event\": {OBS_BUDGET_NS_PER_EVENT:.1},\n  \
         \"export_secs\": {export_secs:.3},\n  \
         \"events\": {events},\n  \"passive\": {passive}\n}}\n"
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}
