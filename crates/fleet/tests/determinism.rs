//! Thread-count invariance for the whole fleet stack.
//!
//! The fleet's only parallelism is the Eq. 4 evaluation fan-out, which
//! returns results in index order; every mutation is serial. So a fleet
//! run — outcome struct *and* the recorded observability stream — must
//! be byte-identical whatever `PROTEUS_THREADS` says. This is the gate
//! that makes `PROTEUS_CHAOS_SEEDS` replays trustworthy.

use std::sync::Arc;

use proteus_bidbrain::BetaEstimator;
use proteus_costsim::StudyExecutor;
use proteus_fleet::{run_sweep, FleetConfig, FleetJobSpec, FleetSim, SweepConfig};
use proteus_market::{catalog, MarketKey, MarketModel, TraceGenerator, TraceSet};
use proteus_obs::Recorder;
use proteus_simtime::{SimDuration, SimTime};

fn markets() -> Vec<MarketKey> {
    catalog::paper_markets().into_iter().take(2).collect()
}

fn traces(seed: u64) -> TraceSet {
    TraceGenerator::new(seed, MarketModel::default())
        .generate_set(&markets(), SimDuration::from_hours(30))
}

/// One full fleet run on `threads` threads, returning the outcome and
/// the recorder's JSONL dump.
fn run(traces: &TraceSet, beta: &BetaEstimator, threads: usize) -> (String, String) {
    let mut fleet = FleetSim::new(traces, beta, FleetConfig::paper_defaults(markets()));
    let rec = Arc::new(Recorder::new());
    fleet.set_recorder(Arc::clone(&rec));
    for i in 0..24u64 {
        fleet.submit(
            FleetJobSpec::trial(
                0.5 + 0.2 * (i % 5) as f64,
                1 + (i % 3) as u32,
                (i % 4) as u32,
            ),
            SimTime::EPOCH + SimDuration::from_mins(5 * i),
        );
    }
    let exec = StudyExecutor::new(threads);
    fleet.run_to(SimTime::from_hours(12), &exec).expect("run");
    let (out, _) = fleet.finish();
    // Debug formatting is total over FleetOutcome's plain data, so it
    // compares every field without a serializer.
    (format!("{out:?}"), rec.to_jsonl())
}

#[test]
fn fleet_outcome_and_obs_stream_are_thread_invariant() {
    let traces = traces(17);
    let beta = BetaEstimator::new();
    let (serial_out, serial_jsonl) = run(&traces, &beta, 1);
    assert!(
        serial_jsonl.contains("fleet."),
        "obs stream never saw a fleet event"
    );
    for threads in [2, 4, 8] {
        let (out, jsonl) = run(&traces, &beta, threads);
        assert_eq!(serial_out, out, "outcome diverged at threads={threads}");
        assert_eq!(
            serial_jsonl, jsonl,
            "obs JSONL diverged at threads={threads}"
        );
    }
}

#[test]
fn sweep_outcome_is_thread_invariant() {
    let traces = traces(23);
    let beta = BetaEstimator::new();
    let sweep_cfg = SweepConfig {
        trials: 10,
        seed: 5,
        rungs: vec![0.5, 1.0],
        horizon: SimDuration::from_hours(10),
        ..SweepConfig::default()
    };
    let run = |threads: usize| {
        let exec = StudyExecutor::new(threads);
        let (out, _) = run_sweep(
            &traces,
            &beta,
            FleetConfig::paper_defaults(markets()),
            &sweep_cfg,
            &exec,
        )
        .expect("sweep");
        out
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(serial, run(threads), "threads={threads}");
    }
}
