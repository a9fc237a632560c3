//! The observability determinism contract (DESIGN.md "Observability").
//!
//! A recorded cost study must be a pure function of its configuration:
//! the JSONL timeline is byte-identical across reruns and across
//! executor thread counts, and attaching a recorder must not perturb
//! the simulation itself (recording is passive — it never feeds back
//! into decisions or RNG draws).

use proteus_costsim::StudyExecutor;
use proteus_costsim::{StudyConfig, StudyEnv};
use proteus_market::MarketModel;

/// A deliberately small study: 4 schemes × 6 starts = 24 recorded jobs.
fn config() -> StudyConfig {
    StudyConfig {
        seed: 9,
        train_days: 4,
        eval_days: 6,
        starts: 6,
        job_hours: 2.0,
        market_model: MarketModel::default(),
        max_job_hours: 48.0,
        market_faults: None,
    }
}

#[test]
fn identical_runs_emit_byte_identical_jsonl() {
    let exec = StudyExecutor::serial();
    let (results_a, jsonl_a) = StudyEnv::new(config()).run_comparison_recorded(&exec);
    let (results_b, jsonl_b) = StudyEnv::new(config()).run_comparison_recorded(&exec);
    assert_eq!(results_a, results_b, "numeric results must be stable");
    assert!(!jsonl_a.is_empty(), "the recorded study produced no events");
    assert_eq!(jsonl_a, jsonl_b, "JSONL timelines diverged across reruns");
}

#[test]
fn thread_count_does_not_change_the_timeline() {
    let (serial_results, serial_jsonl) =
        StudyEnv::new(config()).run_comparison_recorded(&StudyExecutor::serial());
    let (par_results, par_jsonl) =
        StudyEnv::new(config()).run_comparison_recorded(&StudyExecutor::new(4));
    assert_eq!(serial_results, par_results);
    assert_eq!(
        serial_jsonl, par_jsonl,
        "JSONL must be byte-identical for any executor width"
    );
}

#[test]
fn recording_is_passive() {
    let env = StudyEnv::new(config());
    let exec = StudyExecutor::serial();
    let unrecorded = env.run_comparison_with(&exec);
    let (recorded, _) = env.run_comparison_recorded(&exec);
    assert_eq!(
        unrecorded, recorded,
        "attaching a recorder changed the simulation"
    );
}

#[test]
fn jsonl_covers_the_figure_axes() {
    let exec = StudyExecutor::serial();
    let (_, jsonl) = StudyEnv::new(config()).run_comparison_recorded(&exec);
    // Every job is delimited, and the export carries the Fig. 9/10
    // axes: cumulative cost/work samples plus market-plane events.
    let count = |needle: &str| jsonl.matches(needle).count();
    let jobs = 4 * config().starts;
    assert_eq!(count("\"kind\":\"costsim.run_start\""), jobs);
    assert_eq!(count("\"kind\":\"costsim.run_end\""), jobs);
    assert!(
        count("\"kind\":\"costsim.sample\"") >= jobs,
        "missing samples"
    );
    assert!(
        count("\"kind\":\"market.price_move\"") > 0,
        "no price moves"
    );
    assert!(count("\"kind\":\"market.spot_granted\"") > 0, "no grants");
    assert!(count("\"kind\":\"bid.candidate\"") > 0, "no Eq. 4 rankings");
    // Sim-time stamps are non-decreasing within each job's segment
    // (each `run_start` resets both `seq` and the clock to the job's
    // own start instant).
    let mut last_t: Option<u64> = None;
    for line in jsonl.lines() {
        let t = line
            .split("\"t_ms\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("unparseable line: {line}"));
        if line.contains("\"kind\":\"costsim.run_start\"") {
            last_t = None;
        }
        if let Some(prev) = last_t {
            assert!(t >= prev, "time went backwards: {prev} -> {t} in {line}");
        }
        last_t = Some(t);
    }
}
