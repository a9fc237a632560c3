//! The benchmark's contract: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is
//! this table rendered by `proteus-benchmark spec`; a test keeps the
//! two equal.

use crate::json::Value;

/// How long one contract run measures, in seconds.
pub const RUN_SECONDS: u32 = 10;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 2016;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// What one unit of `wall_us_per_unit` is.
    pub unit_of_work: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "train_mf",
        unit_of_work: "training clock",
        why: "Steady MF training, many small rows: mlapps kernels, PS apply/read, simnet threads and the clock protocol do all the work; market, BidBrain, costsim and fleet do none.",
    },
    WorkloadSpec {
        name: "train_mlr",
        unit_of_work: "training clock",
        why: "Same layers, other shape: 16 dense 512-wide rows every worker reads and writes each clock (copy-bound) beside train_mf's keyed small rows (message-bound).",
    },
    WorkloadSpec {
        name: "train_elastic",
        unit_of_work: "elasticity cycle",
        why: "Paper Fig. 16: scripted add / warned-evict / fail cycles drive stage changes, partition migration, drain and rollback that steady training bypasses.",
    },
    WorkloadSpec {
        name: "session_calm",
        unit_of_work: "simulated market hour",
        why: "A Proteus session with every optional path off: market stepping, BidBrain evaluation and warned stage-1 transitions only; rollback, pre-drain, checkpoint, fault and obs paths are bypassed.",
    },
    WorkloadSpec {
        name: "session_churn",
        unit_of_work: "simulated market hour",
        why: "The everything-on session: volatile market, provider faults, unwarned failures with rollback, forecasting and pre-drains, Young's-rule checkpoints, obs recording and JSONL export.",
    },
    WorkloadSpec {
        name: "cost_study",
        unit_of_work: "simulated job-hour",
        why: "Paper Figs. 8/9 at 1000 starts: costsim JobSim x market x BidBrain with no AgileML, PS or simnet, so training-side changes must not move it.",
    },
    WorkloadSpec {
        name: "fleet_sweep",
        unit_of_work: "trial",
        why: "A 6000-trial shared-market sweep on the serial executor, sized where per-trial cost grows super-linearly: fleet scheduler, gang acquisition and Eq. 4 ranking; costsim JobSim, core and AgileML idle.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; per-layer metrics have
    /// none.
    pub bound: f64,
    /// A difference smaller than this, in the metric's unit, is never a
    /// change, however small the median (`compare` allows the larger of
    /// this and `bound` x median). `BENCHMARK.json` has no such key.
    pub floor: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound,
        floor: 0.0,
    }
}

/// Metrics a user of the system sees; every workload reports all of
/// them from the untraced pass, and none is ever zero.
pub const END_TO_END: [MetricSpec; 4] = [
    // Wall time of the driver's blocking calls per unit of work, as
    // measured (like every time below) except on `fleet_sweep`, whose
    // one-thread sweep is scaled to reference host speed.
    e2e("wall_us_per_unit", "us", 0.25),
    // What the run achieved against its naive baseline: training
    // workloads final / initial objective; market workloads bill /
    // all-on-demand bill for the same machine-hours or work.
    e2e("outcome_ratio", "ratio", 0.15),
    e2e("peak_rss_mb", "MB", 0.25),
    // Input generation, trace synthesis, beta training, launch: every
    // rep sets up afresh and the median is reported. Tens of
    // milliseconds, so 5 ms either way is not a change.
    MetricSpec {
        floor: 0.005,
        ..e2e("setup_s", "s", 0.25)
    },
];

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
        floor: 0.0,
    }
}

/// Metrics of single layers, from the traced pass. A workload that
/// makes no call into a layer reports that layer's metrics as 0.
pub const PER_LAYER: [MetricSpec; 90] = [
    lo("simtime.queue_ns_per_event", "ns"),
    lo("market.gen_us_per_market_day", "us"),
    lo("market.advance_us_per_step", "us"),
    lo("market.request_us", "us"),
    lo("market.steps", "count"),
    lo("market.events", "count"),
    lo("market.evictions", "count"),
    lo("market.refusals", "count"),
    lo("bidbrain.beta_train_ms", "ms"),
    lo("bidbrain.ranked_us_per_call", "us"),
    lo("bidbrain.evaluate_ns", "ns"),
    lo("bidbrain.forecast_observe_ns", "ns"),
    lo("bidbrain.decisions", "count"),
    lo("bidbrain.forecast_alerts", "count"),
    lo("ps.apply_ns_per_key_d16", "ns"),
    lo("ps.apply_ns_per_key_d512", "ns"),
    lo("ps.read_ns_per_key_d16", "ns"),
    lo("ps.read_ns_per_key_d512", "ns"),
    lo("ps.cache_flush_ns_per_key", "ns"),
    lo("ps.migrate_us_per_partition", "us"),
    hi("ps.snapshot_encode_mb_per_s", "MB/s"),
    hi("ps.snapshot_decode_mb_per_s", "MB/s"),
    lo("simnet.thread_ns_per_msg", "ns"),
    lo("simnet.event_ns_per_msg", "ns"),
    lo("simnet.msgs_per_clock", "count"),
    lo("simnet.dropped", "count"),
    lo("mlapps.mf_seq_iter_ms", "ms"),
    lo("mlapps.mlr_seq_iter_ms", "ms"),
    lo("mlapps.lda_seq_iter_ms", "ms"),
    lo("mlapps.data_gen_ms", "ms"),
    lo("agileml.launch_ms", "ms"),
    lo("agileml.clock_ms_p50", "ms"),
    lo("agileml.clock_ms_p90", "ms"),
    lo("agileml.clock_ms_over_seq_iter", "ratio"),
    lo("agileml.transition_p50_ms", "ms"),
    lo("agileml.add_machines_p50_ms", "ms"),
    lo("agileml.add_machines_p90_ms", "ms"),
    lo("agileml.evict_warned_p50_ms", "ms"),
    lo("agileml.evict_warned_p90_ms", "ms"),
    lo("agileml.fail_rollback_p50_ms", "ms"),
    lo("agileml.fail_rollback_p90_ms", "ms"),
    lo("agileml.predrain_p50_ms", "ms"),
    lo("agileml.snapshot_ms", "ms"),
    lo("agileml.shutdown_ms", "ms"),
    lo("agileml.clocks_redone", "count"),
    lo("agileml.objective_ratio", "ratio"),
    lo("perfmodel.scaling_curve_us_per_point", "us"),
    lo("obs.record_ns_per_event", "ns"),
    lo("obs.counter_ns_per_add", "ns"),
    lo("obs.jsonl_ns_per_event", "ns"),
    lo("obs.events", "count"),
    lo("obs.on_overhead_pct", "%"),
    lo("costsim.baseline_ms", "ms"),
    lo("costsim.on_demand_us_per_job_hour", "us"),
    lo("costsim.checkpoint_us_per_job_hour", "us"),
    lo("costsim.agileml_us_per_job_hour", "us"),
    lo("costsim.proteus_us_per_job_hour", "us"),
    hi("costsim.threads_speedup", "ratio"),
    lo("costsim.cost_pct_of_on_demand", "%"),
    lo("fleet.sched_share", "ratio"),
    lo("fleet.rounds", "count"),
    lo("fleet.us_per_round", "us"),
    lo("fleet.small_sweep_us_per_trial", "us"),
    lo("fleet.scale_ratio", "ratio"),
    // Serial sweep wall / the same sweep on two executor threads.
    hi("fleet.threads_speedup", "ratio"),
    hi("fleet.finished", "count"),
    lo("fleet.killed", "count"),
    lo("fleet.evictions", "count"),
    lo("fleet.preemptions", "count"),
    lo("fleet.usd_per_core_hour", "usd"),
    lo("core.launch_ms", "ms"),
    lo("core.run_day_ms_p50", "ms"),
    lo("core.finish_ms", "ms"),
    lo("core.checkpoint_now_ms", "ms"),
    lo("core.allocations", "count"),
    lo("core.evictions", "count"),
    lo("core.pre_drains", "count"),
    lo("core.checkpoints", "count"),
    lo("core.restarts", "count"),
    lo("core.cost_pct_of_on_demand", "%"),
    lo("core.share_market", "ratio"),
    lo("core.share_bidbrain", "ratio"),
    lo("core.share_agileml", "ratio"),
    lo("core.share_ps_snapshot", "ratio"),
    lo("core.share_obs", "ratio"),
    lo("core.share_unattributed", "ratio"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.rep_spread_pct", "%"),
    // Process CPU time (all threads) per unit of work: what the run
    // costs to execute, and the number a busy-wait "speed-up" inflates.
    lo("bench.cpu_us_per_unit", "us"),
    // What `run::timed_on_one_thread` scaled a one-thread workload's
    // times by; 0 on the workloads reported as measured.
    hi("bench.host_speed", "ratio"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let strs =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let metric = |m: &MetricSpec, bounded: bool| {
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let mut members = vec![
            ("name", Value::Str(m.name.to_string())),
            ("unit", Value::Str(m.unit.to_string())),
            ("better", Value::Str(better.to_string())),
        ];
        if bounded {
            members.push(("bound", Value::Num(m.bound)));
        }
        Value::obj(members)
    };
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([
                            ("name", Value::Str(w.name.to_string())),
                            ("why", Value::Str(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}
