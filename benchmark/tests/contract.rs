//! The package's promises: `BENCHMARK.json` is the spec table and fits
//! the contract's limits, a seed fixes the inputs and the simulated
//! results, and every workload emits exactly the declared metrics.
//! Runs use the `--quick` sizes, so the whole file takes seconds.

use proteus_benchmark::inputs::{self, Sizes};
use proteus_benchmark::json::{self, Value};
use proteus_benchmark::run::{run_workload, RunOpts, RunResult};
use proteus_benchmark::spec;

fn quick(workload: &str, seed: u64, traced: bool) -> RunResult {
    let opts = RunOpts {
        seed,
        seconds: 0.0,
        traced,
        sizes: Sizes::quick(),
    };
    run_workload(workload, &opts).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
fn is_name(s: &str) -> bool {
    let tail_ok = s
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    s.len() <= 64 && tail_ok && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_is_the_spec_and_within_the_limits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let file = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        file,
        spec::benchmark_json(),
        "regenerate with `proteus-benchmark spec`"
    );

    let keys: Vec<&str> = file
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = file.get("command").unwrap().as_arr().unwrap();
    assert!(command.len() <= 32);
    assert!(command
        .iter()
        .all(|c| c.as_str().is_some_and(|s| s.len() <= 200)));
    let seconds = file.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    let mut names: Vec<&str> = Vec::new();
    for w in &spec::WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why",
            w.name
        );
        names.push(w.name);
    }
    for m in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
        assert!(is_name(m.name), "{}", m.name);
        assert!(is_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        names.push(m.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for m in &spec::END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
    }
    let setup = spec::end_to_end("setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    assert!(spec::END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn a_seed_fixes_the_inputs_and_another_seed_changes_them() {
    let sizes = Sizes::quick();
    for w in &spec::WORKLOADS {
        let a = inputs::fingerprint(w.name, 7, &sizes).expect("known workload");
        assert_eq!(
            Some(a),
            inputs::fingerprint(w.name, 7, &sizes),
            "{}",
            w.name
        );
        assert_ne!(
            Some(a),
            inputs::fingerprint(w.name, 8, &sizes),
            "{}",
            w.name
        );
    }
    assert_eq!(inputs::fingerprint("no_such_workload", 7, &sizes), None);
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    for w in &spec::WORKLOADS {
        for traced in [false, true] {
            let result = quick(w.name, 11, traced);
            assert_eq!(result.failed, 0, "{} failed: {:?}", w.name, result.failures);
            assert!(result.attempted >= 1);
            let declared: Vec<(&str, &str)> = if traced {
                spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            let emitted: Vec<(&str, &str)> =
                result.metrics.iter().map(|(n, u, _)| (*n, *u)).collect();
            assert_eq!(emitted, declared, "{} traced={traced}", w.name);
            assert!(
                result.metrics.iter().all(|(_, _, s)| s.median.is_finite()),
                "{}: a metric is not finite",
                w.name
            );
            if !traced {
                assert!(
                    result.metrics.iter().all(|(_, _, s)| s.median > 0.0),
                    "{}: an end-to-end metric is zero",
                    w.name
                );
            }

            // The contract's result line: exactly four keys, one value
            // and unit per metric.
            let line = json::parse(&result.contract_line()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), declared.len());
            for ((name, m), (want, unit)) in metrics.iter().zip(&declared) {
                assert_eq!(name, want);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
            if traced {
                assert!(
                    !result.spans.as_arr().unwrap().is_empty(),
                    "{}: no spans",
                    w.name
                );
            }
        }
    }
}

#[test]
fn simulated_results_repeat_for_a_seed() {
    // The training workloads run on real threads and have no exact
    // results; the four simulated workloads must repeat bit for bit.
    for name in ["session_calm", "session_churn", "cost_study", "fleet_sweep"] {
        let (a, b) = (quick(name, 5, false), quick(name, 5, false));
        assert!(!a.exact.is_empty(), "{name}: no exact results");
        assert_eq!(a.exact.len(), b.exact.len());
        for (x, y) in a.exact.iter().zip(&b.exact) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "{name}: {} differs", x.0);
        }
    }
}
