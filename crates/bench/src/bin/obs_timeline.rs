//! Renders a `proteus-obs` JSONL export (see `PROTEUS_OBS_OUT`) as a
//! text summary plus optional CSV of the Fig. 9/10 axes.
//!
//! ```text
//! PROTEUS_OBS_OUT=obs.jsonl cargo run --release -p proteus-bench --bin figs -- fig08
//! cargo run --release -p proteus-bench --bin obs_timeline -- obs.jsonl samples.csv
//! ```
//!
//! The first argument is the JSONL path (defaults to `PROTEUS_OBS_OUT`
//! if that is set and not empty); the optional second argument writes a CSV with one row
//! per `costsim.sample` record — cumulative cost, cumulative work, and
//! footprint by tier over sim time, keyed by run index — ready for a
//! Fig. 9/10-style plot.

use std::collections::BTreeMap;

use proteus_bench::header;

/// Pulls `"field":value` out of one JSONL line without a JSON parser.
/// Fields are rendered by `proteus-obs` in a fixed order with no
/// embedded spaces, so a string scan is exact.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let end = rest
        .char_indices()
        .find(|&(i, c)| {
            if rest.starts_with('"') {
                i > 0 && c == '"' && !rest[..i].ends_with('\\')
            } else {
                c == ',' || c == '}'
            }
        })
        .map_or(rest.len(), |(i, _)| i);
    let value = &rest[..end + usize::from(rest.starts_with('"'))];
    Some(value.trim_matches('"'))
}

fn main() {
    let out = &mut std::io::stdout();
    header(out, "OBS: timeline summary from a JSONL export").expect("stdout");

    let mut args = std::env::args().skip(1);
    let path = args
        .next()
        .or_else(proteus_obs::export_path)
        .unwrap_or_else(|| {
            eprintln!("usage: obs_timeline <export.jsonl> [samples.csv]");
            std::process::exit(2);
        });
    let csv_path = args.next();

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("error: could not read {path}: {e}");
        std::process::exit(1);
    });

    // ---- per-kind counts --------------------------------------------
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut runs = 0u64;
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for line in text.lines() {
        let kind = field(line, "kind").unwrap_or("?");
        *kinds.entry(kind.to_string()).or_insert(0) += 1;
        if kind == "costsim.run_start" {
            runs += 1;
        }
        if let Some(t) = field(line, "t_ms").and_then(|v| v.parse::<u64>().ok()) {
            t_min = t_min.min(t);
            t_max = t_max.max(t);
        }
    }
    let total: u64 = kinds.values().sum();
    println!("{path}: {total} events");
    if t_min <= t_max {
        println!(
            "sim-time span: {:.1}h – {:.1}h",
            t_min as f64 / 3_600_000.0,
            t_max as f64 / 3_600_000.0
        );
    }
    println!();
    for (kind, count) in &kinds {
        println!("  {kind:<26} {count:>8}");
    }

    // ---- per-run cost/work summary (the Fig. 9/10 axes) -------------
    // Runs are delimited by `costsim.run_start`; the session-mode
    // export has no run delimiters and is treated as a single run 0.
    let mut run: i64 = -1;
    let mut scheme = String::new();
    let mut csv = String::from("run,scheme,t_hours,cum_cost,cum_work,spot,on_demand,fallback\n");
    let mut sample_rows = 0u64;
    let mut finals: Vec<(i64, String, f64, f64)> = Vec::new();
    for line in text.lines() {
        match field(line, "kind") {
            Some("costsim.run_start") => {
                run += 1;
                scheme = field(line, "scheme").unwrap_or("?").to_string();
            }
            Some("costsim.sample") => {
                let t = field(line, "t_ms")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0)
                    / 3_600_000.0;
                let get = |n: &str| field(line, n).unwrap_or("0").to_string();
                csv.push_str(&format!(
                    "{},{},{:.3},{},{},{},{},{}\n",
                    run.max(0),
                    scheme,
                    t,
                    get("cum_cost"),
                    get("cum_work"),
                    get("spot"),
                    get("on_demand"),
                    get("fallback"),
                ));
                sample_rows += 1;
            }
            Some("costsim.run_end") => {
                let cost = field(line, "cost")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0);
                let work = field(line, "work")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0);
                finals.push((run.max(0), scheme.clone(), cost, work));
            }
            _ => {}
        }
    }

    if !finals.is_empty() {
        // Mean final cost per scheme, in run order of first appearance.
        let mut by_scheme: BTreeMap<&str, (f64, f64, u64)> = BTreeMap::new();
        for (_, s, cost, work) in &finals {
            let e = by_scheme.entry(s).or_insert((0.0, 0.0, 0));
            e.0 += cost;
            e.1 += work;
            e.2 += 1;
        }
        println!();
        println!("per-scheme means over {runs} runs:");
        for (s, (cost, work, n)) in &by_scheme {
            let n_f = *n as f64;
            println!(
                "  {s:<22} ${:>8.2} cost   {:>10.1} work   ({n} runs)",
                cost / n_f,
                work / n_f
            );
        }
    }

    // ---- fleet summary (present when the export came from FleetSim) -
    let launches = kinds.get("fleet.gang_launched").copied().unwrap_or(0);
    if launches > 0 {
        let mut waited_ms = 0.0f64;
        let mut work_forfeited = 0.0f64;
        let mut by_market: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines() {
            match field(line, "kind") {
                Some("fleet.gang_launched") => {
                    waited_ms += field(line, "waited_ms")
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or(0.0);
                    *by_market
                        .entry(field(line, "market").unwrap_or("?").to_string())
                        .or_insert(0) += 1;
                }
                Some("fleet.trial_early_killed") => {
                    work_forfeited += field(line, "work_done")
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or(0.0);
                }
                _ => {}
            }
        }
        let get = |k: &str| kinds.get(k).copied().unwrap_or(0);
        println!();
        println!("fleet:");
        println!(
            "  {} admitted, {launches} gang launches (mean queue wait {:.1} min), {} requeues",
            get("fleet.job_admitted"),
            waited_ms / launches as f64 / 60_000.0,
            get("fleet.gang_queued"),
        );
        println!(
            "  {} early kills ({work_forfeited:.1} core-hours forfeited), {} priority preemptions",
            get("fleet.trial_early_killed"),
            get("fleet.preempted_by_priority"),
        );
        for (market, n) in &by_market {
            println!("    {market:<22} {n:>6} launches");
        }
    }

    if let Some(csv_path) = csv_path {
        if let Err(e) = std::fs::write(&csv_path, &csv) {
            eprintln!("error: could not write {csv_path}: {e}");
            std::process::exit(1);
        }
        println!();
        println!("wrote {csv_path} ({sample_rows} sample rows)");
    }
}
