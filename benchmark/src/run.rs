//! The measurement protocol shared by every workload.
//!
//! Untraced pass (`--trace 0`, end-to-end metrics): one discarded
//! warm-up rep, then timed reps on fresh state until the run's seconds
//! are used (never fewer than `Sizes::min_reps`). Every rep sets up
//! from scratch, so set-up time is sampled as often as the timed region
//! and each metric is the median over reps.
//!
//! Traced pass (`--trace 1`, per-layer metrics): the same warm-up, then
//! pairs of reps, one plain and one with a span around every call into
//! a crate, until half the seconds are used (never fewer than two
//! pairs); then the workload's layer probes. The pairing is what
//! `bench.trace_overhead_pct` is computed from.
//!
//! One driver thread issues every call and waits for it to return
//! (closed loop, one client). Every time is reported as measured, but
//! for a timed region that runs on one thread ([`timed_on_one_thread`]).

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

use crate::inputs::Sizes;
use crate::json::Value;
use crate::spec;
use crate::stats::Summary;
use crate::sys;
use crate::trace::Tracer;
use crate::workloads;

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
}

/// Operations attempted and failed: every driver call that can return
/// `Err` (a timeout is one), and every correctness check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading the output.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one driver call; `None` when it failed.
    pub fn call<T, E: Debug>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// What a rep may use.
pub struct Ctx<'a> {
    pub seed: u64,
    pub sizes: &'a Sizes,
    pub tracer: &'a mut Tracer,
    pub ops: &'a mut Ops,
}

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Units of work the timed region completed.
    pub units: f64,
    pub outcome_ratio: f64,
    /// Simulated results that must repeat bit for bit on every rep of
    /// one run (bills, eviction counts, study results).
    pub exact: Vec<(&'static str, f64)>,
    /// Per-layer observations of this rep (counts and single timings;
    /// repeated timings are read from the tracer's spans instead).
    pub layer: Vec<(&'static str, f64)>,
}

/// Wall and CPU seconds `f` took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = sys::cpu_seconds();
    let wall = Instant::now();
    let out = f();
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = match (cpu, sys::cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    (out, wall_s, cpu_s)
}

/// Seconds [`kernel_seconds`] takes on the sandbox the baseline was
/// recorded on, in the state that sandbox is in most of the time. Only a
/// scale: it keeps scaled times near the raw ones.
const KERNEL_REFERENCE_S: f64 = 0.0135;

/// Times a fixed kernel on the calling thread: eight independent
/// integer and floating-point chains and no memory traffic, so it is
/// bound by what one core can issue per cycle, which is what this
/// sandbox's host takes away and gives back in steps.
fn kernel_seconds() -> f64 {
    let started = Instant::now();
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut f = [1.0f64; 8];
    for i in 0..2_000_000u64 {
        for (k, (x, f)) in x.iter_mut().zip(&mut f).enumerate() {
            *x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ k as u64);
            *f = *f * 1.000_000_001 + (*x >> 60) as f64;
        }
    }
    std::hint::black_box((x, f));
    started.elapsed().as_secs_f64()
}

/// What [`timed_on_one_thread`] measured.
#[derive(Debug, Clone, Copy)]
pub struct OneThread {
    /// Wall and CPU seconds at reference speed: as measured, times
    /// `host_speed`.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Reference kernel time over the kernel's time around this region:
    /// above 1 when the core ran faster than the reference.
    pub host_speed: f64,
}

/// [`timed`] for a region that runs on one thread, with the kernel
/// timed right before and right after it. Such a region goes exactly
/// as fast as the one core it is on, and on a shared host that speed
/// moves by a fifth for seconds to minutes at a time; dividing by the
/// kernel's reading takes that out (ten `fleet_sweep` runs: spread
/// 9.1 % as measured, 1.8 % scaled). A region that keeps several
/// threads busy does not follow a one-thread kernel (correlation
/// 0.2-0.3 on the other six workloads, spread unchanged or worse), so
/// those use [`timed`] and report raw times.
pub fn timed_on_one_thread<T>(f: impl FnOnce() -> T) -> (T, OneThread) {
    let before = kernel_seconds();
    let (out, wall_s, cpu_s) = timed(f);
    let host_speed = KERNEL_REFERENCE_S / (0.5 * (before + kernel_seconds()));
    let scaled = OneThread {
        wall_s: wall_s * host_speed,
        cpu_s: cpu_s * host_speed,
        host_speed,
    };
    (out, scaled)
}

/// Per-layer metric values of one traced run, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Median over the traced reps of a per-rep observation.
    pub fn set_rep_median(&mut self, name: &'static str, reps: &[Rep]) {
        if let Some(median) = rep_median(reps, name) {
            self.set(name, median);
        }
    }
}

/// Median over `reps` of the per-rep observation called `name`.
pub fn rep_median(reps: &[Rep], name: &str) -> Option<f64> {
    let samples: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.layer.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
        .collect();
    Summary::of(&samples).map(|s| s.median)
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Summaries by metric name: the end-to-end metrics of an untraced
    /// run, or every per-layer metric of a traced one.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The exact results of the first rep (identical on all of them
    /// unless a check failed).
    pub exact: Vec<(&'static str, f64)>,
    pub reps: usize,
    /// Wall microseconds per unit of every timed rep, in run order
    /// (`plain`, and `traced` for a traced run).
    pub rep_wall_us: [Vec<f64>; 2],
    pub spans: Value,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of a contract run's standard output.
    pub fn contract_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, unit, s)| {
                    (
                        *name,
                        Value::obj([
                            ("value", Value::Num(s.median)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
        .to_string()
    }

    /// The run's detail file: every summary with its quartiles, the
    /// checks, and (traced) the spans.
    pub fn detail_json(&self) -> Value {
        Value::obj([
            ("workload", Value::Str(self.workload.to_string())),
            ("seed", Value::Num(self.seed as f64)),
            ("traced", Value::Bool(self.traced)),
            ("reps", Value::Num(self.reps as f64)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "metrics",
                Value::obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, s)| (*name, s.to_json(unit))),
                ),
            ),
            (
                "exact",
                Value::obj(self.exact.iter().map(|(k, v)| (*k, Value::Num(*v)))),
            ),
            ("rep_wall_us_per_unit", sides(&self.rep_wall_us)),
            ("spans", self.spans.clone()),
        ])
    }
}

/// Per-rep samples of the plain and the traced reps, as JSON.
fn sides(samples: &[Vec<f64>; 2]) -> Value {
    Value::obj(
        ["plain", "traced"]
            .into_iter()
            .zip(samples)
            .map(|(side, v)| {
                (
                    side,
                    Value::Arr(v.iter().copied().map(Value::Num).collect()),
                )
            }),
    )
}

/// Runs `workload` once under `opts`.
pub fn run_workload(workload: &str, opts: &RunOpts) -> Result<RunResult, String> {
    let wl = spec::workload(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let mut tracer = Tracer::new(false);
    let mut ops = Ops::default();
    fn ctx<'a>(opts: &'a RunOpts, tracer: &'a mut Tracer, ops: &'a mut Ops) -> Ctx<'a> {
        Ctx {
            seed: opts.seed,
            sizes: &opts.sizes,
            tracer,
            ops,
        }
    }
    let run_rep = |tracer: &mut Tracer, ops: &mut Ops, traced: bool| -> Option<Rep> {
        tracer.set_enabled(traced);
        tracer.next_rep();
        workloads::rep(wl.name, &mut ctx(opts, tracer, ops))
    };

    if opts.sizes.warm_up {
        run_rep(&mut tracer, &mut ops, false);
    }

    // `plain` reps run with the tracer off, `traced` ones with it on.
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let started = Instant::now();
    let budget = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let min_rounds = if opts.traced {
        opts.sizes.min_reps.min(2)
    } else {
        opts.sizes.min_reps
    };
    let mut rounds = 0;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < budget {
        match run_rep(&mut tracer, &mut ops, false) {
            Some(rep) => plain.push(rep),
            None => break,
        }
        if opts.traced {
            match run_rep(&mut tracer, &mut ops, true) {
                Some(rep) => traced.push(rep),
                None => break,
            }
        }
        rounds += 1;
    }
    tracer.set_enabled(opts.traced);
    if plain.is_empty() || (opts.traced && traced.is_empty()) {
        // A rep that cannot finish has already counted its failure;
        // without a single complete rep there is nothing to report.
        return Err(format!(
            "{workload}: no rep completed: {}",
            ops.failures.join("; ")
        ));
    }

    // Simulated results repeat exactly or the run is wrong.
    let all = || plain.iter().chain(&traced);
    let first = all().next().map(|r| r.exact.clone()).unwrap_or_default();
    let identical = all().all(|r| {
        r.exact.len() == first.len()
            && r.exact
                .iter()
                .zip(&first)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    });
    ops.check("simulated results identical across reps", identical);
    workloads::verify_once(wl.name, &mut ctx(opts, &mut tracer, &mut ops), &first);

    let per_unit = |reps: &[Rep], pick: fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter()
            .map(|r| pick(r) * 1e6 / r.units.max(1.0))
            .collect()
    };
    let wall_us = per_unit(&plain, |r| r.wall_s);
    let rep_wall_us = [wall_us.clone(), per_unit(&traced, |r| r.wall_s)];

    let metrics: Vec<(&'static str, &'static str, Summary)> = if opts.traced {
        let mut layers = Layers::default();
        workloads::layers(
            wl.name,
            &mut ctx(opts, &mut tracer, &mut ops),
            &traced,
            &mut layers,
        );
        // Minima, not medians: with a handful of reps per side the
        // fastest rep of each is the steadier estimate of what the
        // spans themselves add.
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let traced_us = &rep_wall_us[1];
        let (off, on) = (fastest(&wall_us), fastest(traced_us));
        layers.set("bench.trace_overhead_pct", 100.0 * (on - off) / off);
        let both: Vec<f64> = wall_us.iter().chain(traced_us).copied().collect();
        if let Some(s) = Summary::of(&both) {
            layers.set("bench.rep_spread_pct", 100.0 * s.spread());
        }
        let cpu_us: Vec<f64> = [&plain, &traced]
            .into_iter()
            .flat_map(|side| per_unit(side, |r| r.cpu_s))
            .collect();
        if let Some(s) = Summary::of(&cpu_us) {
            layers.set("bench.cpu_us_per_unit", s.median);
        }
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let v = layers.get(m.name).unwrap_or(0.0);
                (m.name, m.unit, Summary::single(v))
            })
            .collect()
    } else {
        let summary = |samples: Vec<f64>| Summary::of(&samples);
        let values: [(&str, Option<Summary>); 4] = [
            ("wall_us_per_unit", summary(wall_us)),
            (
                "outcome_ratio",
                summary(plain.iter().map(|r| r.outcome_ratio).collect()),
            ),
            ("peak_rss_mb", sys::peak_rss_mb().map(Summary::single)),
            (
                "setup_s",
                summary(plain.iter().map(|r| r.setup_s).collect()),
            ),
        ];
        let mut out = Vec::new();
        for m in &spec::END_TO_END {
            let s = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .and_then(|(_, s)| *s)
                .ok_or_else(|| format!("{workload}: {} was not measured", m.name))?;
            ops.check(
                "end-to-end metric is finite and positive",
                s.median.is_finite() && s.median > 0.0,
            );
            out.push((m.name, m.unit, s));
        }
        out
    };

    Ok(RunResult {
        workload: wl.name,
        seed: opts.seed,
        traced: opts.traced,
        metrics,
        attempted: ops.attempted,
        failed: ops.failed,
        failures: ops.failures,
        exact: first,
        reps: plain.len() + traced.len(),
        rep_wall_us,
        spans: tracer.to_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_thread_times_are_the_measured_ones_times_host_speed() {
        let (raw_wall_s, took) = timed_on_one_thread(|| {
            let started = Instant::now();
            std::hint::black_box(kernel_seconds());
            started.elapsed().as_secs_f64()
        });
        assert!(
            took.host_speed.is_finite() && took.host_speed > 0.0,
            "{took:?}"
        );
        // The region's own clock stops a moment before `timed`'s.
        let unscaled = took.wall_s / took.host_speed;
        assert!(
            unscaled >= raw_wall_s && unscaled < raw_wall_s + 0.01,
            "{took:?}"
        );
        // The region is the kernel itself, so at reference speed it
        // takes about the reference time whatever the host is doing.
        assert!(
            (took.wall_s / KERNEL_REFERENCE_S - 1.0).abs() < 0.5,
            "{took:?}"
        );
    }
}
