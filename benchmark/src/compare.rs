//! `compare A.json B.json`: two result files, one verdict per
//! end-to-end metric and workload.

use crate::json::{self, Value};
use crate::spec::{self, Better, MetricSpec};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Either side's own inter-quartile range is wider than the allowed
    /// difference, so a difference of that size means nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`: the medians may differ by the metric's bound
/// (a share of `a`'s median) or its absolute floor, whichever is larger.
pub fn verdict(a: &Summary, b: &Summary, m: &MetricSpec) -> Verdict {
    let allowed = (m.bound * a.median.abs()).max(m.floor);
    if (a.q3 - a.q1).max(b.q3 - b.q1) > allowed {
        return Verdict::Unresolved;
    }
    let worse = match m.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if worse > allowed {
        Verdict::Regressed
    } else if worse < -allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |v: &Value| {
        v.get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
    };
    let a_wl = workloads(&a).ok_or_else(|| format!("{a_path}: no \"workloads\""))?;
    let mut clean = true;
    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<14} {:<18} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for (name, a_entry) in &a_wl {
        let Some(b_entry) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<14} only in A");
            continue;
        };
        for m in &spec::END_TO_END {
            let side = |entry: &Value| {
                entry
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (side(a_entry), side(b_entry)) else {
                println!("{name:<14} {:<18} missing on one side", m.name);
                continue;
            };
            let v = verdict(&sa, &sb, m);
            clean &= v != Verdict::Regressed;
            let show =
                |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, m.unit);
            println!(
                "{name:<14} {:<18} {:>34} {:>34} {:>+7.1}%  {} (bound {:.0}%)",
                m.name,
                show(&sa),
                show(&sb),
                100.0 * (sb.median - sa.median) / sa.median.abs(),
                v.label(),
                100.0 * m.bound
            );
        }
        let same = a_entry.get("exact") == b_entry.get("exact");
        println!(
            "{name:<14} {:<18} {}",
            "simulated results",
            if same { "identical" } else { "DIFFER" }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            min: median * 0.98,
            n: 5,
        }
    }

    fn metric(better: Better, floor: f64) -> MetricSpec {
        MetricSpec {
            name: "m",
            unit: "ms",
            better,
            bound: 0.10,
            floor,
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let lower = metric(Better::Lower, 0.0);
        let a = tight(100.0);
        assert_eq!(verdict(&a, &tight(105.0), &lower), Verdict::Unchanged);
        assert_eq!(verdict(&a, &tight(115.0), &lower), Verdict::Regressed);
        assert_eq!(verdict(&a, &tight(85.0), &lower), Verdict::Improved);
        assert_eq!(
            verdict(&a, &tight(85.0), &metric(Better::Higher, 0.0)),
            Verdict::Regressed
        );
        let noisy = Summary {
            q1: 80.0,
            q3: 120.0,
            ..tight(100.0)
        };
        assert_eq!(verdict(&a, &noisy, &lower), Verdict::Unresolved);
    }

    #[test]
    fn floor_widens_what_a_small_median_may_move() {
        // 10 % of 20 is 2; a floor of 5 allows 20 -> 24 and an
        // inter-quartile range of 4.
        let floored = metric(Better::Lower, 5.0);
        let a = tight(20.0);
        let wide = Summary {
            q1: 22.0,
            q3: 26.0,
            ..tight(24.0)
        };
        assert_eq!(verdict(&a, &wide, &floored), Verdict::Unchanged);
        assert_eq!(
            verdict(&a, &wide, &metric(Better::Lower, 0.0)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&a, &tight(26.0), &floored), Verdict::Regressed);
    }
}
