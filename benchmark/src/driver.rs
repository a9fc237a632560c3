//! The whole benchmark in one command: every workload in a fresh child
//! process, the untraced pass then the traced one, a table on standard
//! output and the result and trace files under `benchmark/out/`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};
use crate::spec;
use crate::stats::Summary;

/// Where result, detail and trace files go: `benchmark/out/` under the
/// current directory when run from the repository root (as the
/// contract's command does), else `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// The detail file of one run of `workload`.
pub fn detail_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!("{workload}.trace{}.json", u8::from(traced)))
}

pub fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

pub struct AllOpts {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

fn child(workload: &str, opts: &AllOpts, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end and collects what it printed.
    let out = cmd
        .output()
        .map_err(|e| format!("{workload}: spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}): exited with {}: {}",
            u8::from(traced),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let path = detail_path(workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_metrics(detail: &Value) {
    let Some(metrics) = detail.get("metrics").and_then(Value::as_obj) else {
        return;
    };
    for (name, m) in metrics {
        let (Some(s), Some(unit)) = (Summary::from_json(m), m.get("unit").and_then(Value::as_str))
        else {
            continue;
        };
        if s.median == 0.0 {
            // A layer this workload makes no call into.
            continue;
        }
        if s.n > 1 {
            println!(
                "  {name:<38} {:>14.4} {unit:<6} (min {:.4}, q1 {:.4}, q3 {:.4}, n {})",
                s.median, s.min, s.q1, s.q3, s.n
            );
        } else {
            println!("  {name:<38} {:>14.4} {unit}", s.median);
        }
    }
}

/// Runs everything; `Ok(true)` when no operation failed anywhere.
pub fn run_all(opts: &AllOpts) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut entries = Vec::new();
    let mut traces = Vec::new();
    let mut clean = true;
    for wl in &spec::WORKLOADS {
        println!("== {} (unit: {})", wl.name, wl.unit_of_work);
        let plain = child(wl.name, opts, false)?;
        print_metrics(&plain);
        let num = |d: &Value, k: &str| d.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let (mut attempted, mut failed) = (num(&plain, "attempted"), num(&plain, "failed"));
        let mut failures = plain.get("failures").cloned().unwrap_or(Value::Arr(vec![]));
        let mut members = vec![
            ("unit_of_work", Value::Str(wl.unit_of_work.to_string())),
            (
                "end_to_end",
                plain.get("metrics").cloned().unwrap_or(Value::Null),
            ),
            ("exact", plain.get("exact").cloned().unwrap_or(Value::Null)),
        ];
        let traced = child(wl.name, opts, true)?;
        print_metrics(&traced);
        attempted += num(&traced, "attempted");
        failed += num(&traced, "failed");
        if let (Value::Arr(all), Some(Value::Arr(more))) = (&mut failures, traced.get("failures")) {
            all.extend(more.iter().cloned());
        }
        members.push((
            "per_layer",
            traced.get("metrics").cloned().unwrap_or(Value::Null),
        ));
        traces.push((wl.name, traced.get("spans").cloned().unwrap_or(Value::Null)));
        println!("  operations: {attempted} attempted, {failed} failed");
        clean &= failed == 0.0;
        members.push(("attempted", Value::Num(attempted)));
        members.push(("failed", Value::Num(failed)));
        members.push(("failures", failures));
        entries.push((wl.name, Value::obj(members)));
    }
    let result = Value::obj([
        ("commit", Value::Str(commit())),
        ("nproc", Value::Num(nproc as f64)),
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("quick", Value::Bool(opts.quick)),
        ("workloads", Value::obj(entries)),
    ]);
    let result_path = out_dir().join("result.json");
    write_file(&result_path, &result.pretty())?;
    println!("wrote {}", result_path.display());
    let trace_path = out_dir().join("trace.json");
    write_file(&trace_path, &Value::obj(traces).to_string())?;
    println!("wrote {}", trace_path.display());
    Ok(clean)
}
