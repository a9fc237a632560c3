//! Command line of the benchmark.
//!
//! ```text
//! proteus-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one workload in this process; the last line of standard output
//!     is the result object BENCHMARK.json's contract describes
//! proteus-benchmark [--seed N] [--seconds S] [--quick]
//!     every workload, each pass in a fresh child process
//! proteus-benchmark compare A.json B.json
//! proteus-benchmark spec
//!     prints BENCHMARK.json
//! ```

use std::process::ExitCode;

use proteus_benchmark::driver::{self, AllOpts};
use proteus_benchmark::inputs::Sizes;
use proteus_benchmark::run::{run_workload, RunOpts};
use proteus_benchmark::{compare, spec, sys};

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.to_string()),
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                cli.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn one_workload(workload: &str, cli: &Cli) -> Result<bool, String> {
    let opts = RunOpts {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        sizes: if cli.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        },
    };
    let result = run_workload(workload, &opts)?;
    driver::write_file(
        &driver::detail_path(workload, cli.traced),
        &result.detail_json().to_string(),
    )?;
    println!(
        "{workload} seed {} {} pass: {} reps, {} operations attempted, {} failed",
        result.seed,
        if result.traced { "traced" } else { "untraced" },
        result.reps,
        result.attempted,
        result.failed
    );
    for failure in &result.failures {
        println!("  failed: {failure}");
    }
    for (name, unit, s) in &result.metrics {
        println!("  {name:<38} {:>16.6} {unit}", s.median);
    }
    println!("{}", result.contract_line());
    Ok(true)
}

fn main() -> ExitCode {
    sys::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ => parse(&args).and_then(|cli| match &cli.workload {
            Some(workload) => one_workload(workload, &cli),
            None => driver::run_all(&AllOpts {
                seed: cli.seed,
                seconds: cli.seconds,
                quick: cli.quick,
            }),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
