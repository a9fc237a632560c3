//! `session_calm` and `session_churn`: a whole `Proteus` session —
//! simulated provider, BidBrain, and a real AgileML job training in the
//! background while the market moves under it.

use std::sync::Arc;
use std::time::Instant;

use proteus::{Proteus, ProteusConfig};
use proteus_agileml::Stage;
use proteus_bidbrain::ForecastConfig;
use proteus_market::{MarketFaultPlan, MarketModel};
use proteus_mlapps::mf::MatrixFactorization;
use proteus_obs::Recorder;
use proteus_simtime::{SimDuration, SimTime};

use crate::inputs::{self, SESSION_FAULTS, SESSION_HISTORY, TRAIN_DAYS};
use crate::probes;
use crate::run::{rep_median, timed, Ctx, Layers, Rep};
use crate::stats::Summary;
use crate::workloads::train;

/// BidBrain's decision steps per simulated hour (one every 120 s).
const STEPS_PER_HOUR: f64 = 30.0;

fn hours(ctx: &Ctx, churn: bool) -> u64 {
    if churn {
        ctx.sizes.churn_hours
    } else {
        ctx.sizes.calm_hours
    }
}

fn market_model(churn: bool) -> MarketModel {
    if churn {
        MarketModel::volatile()
    } else {
        MarketModel::calm()
    }
}

/// Default session configuration except for what the workload is about.
fn config(ctx: &Ctx, churn: bool) -> ProteusConfig {
    let hours = hours(ctx, churn);
    let mut cfg = ProteusConfig {
        market_model: market_model(churn),
        market_horizon: SimDuration::from_hours(24 * TRAIN_DAYS + hours + 2),
        ..ProteusConfig::default()
    };
    // One seed inside the session draws both the price history and the
    // model initialisation; it names the fixed history (see `inputs`).
    cfg.agile.seed = SESSION_HISTORY;
    if churn {
        let start = SimTime::EPOCH + cfg.beta_training;
        let drought = start + SimDuration::from_hours((hours / 2).min(48));
        cfg.forecast = Some(ForecastConfig::default());
        cfg.market_faults = Some(
            MarketFaultPlan::new(SESSION_FAULTS)
                .with_throttle(0.10, SimDuration::from_secs(60))
                .with_boot_delay(SimDuration::from_secs(30), SimDuration::from_mins(3))
                .with_infant_mortality(0.05, SimDuration::from_mins(30))
                .with_drought(drought, drought + SimDuration::from_hours(1), 0),
        );
    } else {
        // Under the default stage policy a machine added right behind a
        // warned eviction can await a partition whose migration the
        // eviction left in flight, and `add_machines` then times out
        // (60 s) — about one 672-hour calm session in six on this box.
        // Stage 1 keeps every partition on the reliable machine, so
        // nothing migrates. `session_churn` keeps the default policy:
        // its boot delays separate each eviction from the next add, and
        // 300 consecutive sessions completed while sizing it.
        cfg.agile.force_stage = Some(Stage::Stage1);
    }
    cfg
}

fn launch(
    ctx: &mut Ctx,
    churn: bool,
    observe: bool,
) -> Option<(Proteus<MatrixFactorization>, Option<Arc<Recorder>>, f64)> {
    let (seed, shape) = (ctx.seed, ctx.sizes.session_mf);
    let (app, data) = ctx
        .tracer
        .span("mlapps.data_gen", |_| inputs::mf_problem(seed, shape));
    let cfg = config(ctx, churn);
    let od_price = cfg.on_demand_market.instance_type().on_demand_price;
    let rec = observe.then(|| Arc::new(Recorder::new()));
    let launched = ctx.tracer.span("core.launch", |_| match &rec {
        Some(rec) => Proteus::launch_observed(app, data, cfg, Arc::clone(rec)),
        None => Proteus::launch(app, data, cfg),
    });
    let session = ctx.ops.call("launch", launched)?;
    Some((session, rec, od_price))
}

/// `session_churn` records and exports its timeline as part of the
/// workload; `session_calm` runs with no recorder attached.
pub fn rep(ctx: &mut Ctx, churn: bool) -> Option<Rep> {
    session(ctx, churn, churn)
}

fn session(ctx: &mut Ctx, churn: bool, observe: bool) -> Option<Rep> {
    let hours = hours(ctx, churn);
    let setup = Instant::now();
    let (mut session, rec, od_price) = launch(ctx, churn, observe)?;
    let setup_s = setup.elapsed().as_secs_f64();

    let ((report, jsonl_bytes), wall_s, cpu_s) = timed(|| {
        let ran = if ctx.tracer.enabled() {
            // A span per simulated day. The session steps in 120 s
            // either way, so the split changes no decision.
            let mut left = hours;
            let mut ok = true;
            while ok && left > 0 {
                let day = left.min(24);
                let run = ctx
                    .tracer
                    .span("core.run_day", |_| session.run_market_hours(day as f64));
                ok = ctx.ops.call("run_market_hours", run).is_some();
                left -= day;
            }
            ok
        } else {
            let run = session.run_market_hours(hours as f64);
            ctx.ops.call("run_market_hours", run).is_some()
        };
        if !ran {
            // A session that timed out holds a wedged job; finishing it
            // would only wait out more timeouts.
            return (None, 0);
        }
        let finished = ctx.tracer.span("core.finish", |_| session.finish());
        let report = ctx.ops.call("finish", finished);
        let bytes = rec.as_ref().map_or(0, |rec| {
            ctx.tracer.span("obs.to_jsonl", |_| rec.to_jsonl().len())
        });
        (report, bytes)
    });
    let report = report?;

    let on_demand = report.on_demand_equivalent(od_price);
    let usage = report.usage;
    ctx.ops.check(
        "ledger non-negative, evictions within allocations, objective finite",
        report.cost >= 0.0
            && usage.on_demand_hours >= 0.0
            && usage.spot_paid_hours >= 0.0
            && usage.free_hours >= 0.0
            && on_demand > 0.0
            && report.evictions <= report.allocations
            && report.final_objective.is_finite(),
    );
    let steps = hours as f64 * STEPS_PER_HOUR;
    let mut rep = Rep {
        setup_s,
        wall_s,
        cpu_s,
        units: hours as f64,
        outcome_ratio: report.cost / on_demand,
        exact: vec![
            ("cost", report.cost),
            ("machine_hours", usage.total_hours()),
            ("evictions", f64::from(report.evictions)),
            ("allocations", f64::from(report.allocations)),
            ("refusals", f64::from(report.refusals + report.throttles)),
            ("forecast_alerts", f64::from(report.forecast_alerts)),
            ("pre_drains", f64::from(report.pre_drains)),
            ("checkpoints", f64::from(report.checkpoints)),
        ],
        layer: vec![
            ("market.steps", steps),
            ("market.evictions", f64::from(report.evictions)),
            (
                "market.refusals",
                f64::from(report.refusals + report.throttles),
            ),
            (
                "bidbrain.forecast_alerts",
                f64::from(report.forecast_alerts),
            ),
            ("core.allocations", f64::from(report.allocations)),
            ("core.evictions", f64::from(report.evictions)),
            ("core.pre_drains", f64::from(report.pre_drains)),
            ("core.checkpoints", f64::from(report.checkpoints)),
            ("core.restarts", f64::from(report.restarts)),
            (
                "core.cost_pct_of_on_demand",
                100.0 * report.cost / on_demand,
            ),
            // Mean spot machines held, for the forecaster's share.
            (
                "spot_machines",
                (usage.spot_paid_hours + usage.free_hours) / hours as f64,
            ),
        ],
    };
    if let Some(rec) = &rec {
        // The job's own events carry wall-clock-dependent clock
        // advances, so the export's length is not repeatable; the
        // market, BidBrain and session events are.
        let timeline = rec.timeline();
        let market = timeline.count("market.") as f64;
        let decisions = timeline.count("bid.evaluated") as f64;
        rep.exact.push(("market_events", market));
        rep.exact
            .push(("bid_events", timeline.count("bid.") as f64));
        rep.exact
            .push(("session_events", timeline.count("session.") as f64));
        ctx.ops.check(
            "export is non-empty and monotone",
            jsonl_bytes > 0 && timeline.is_monotone(),
        );
        rep.layer.push(("market.events", market));
        rep.layer.push(("bidbrain.decisions", decisions));
        rep.layer.push(("obs.events", timeline.len() as f64));
        rep.layer
            .push(("rollbacks", timeline.count("agile.recovered") as f64));
    }
    Some(rep)
}

/// `core.checkpoint_now_ms`: a two-hour session of the same
/// configuration, checkpointed on demand a few times.
fn checkpoint_probe(ctx: &mut Ctx, churn: bool) {
    let Some((mut session, _rec, _)) = launch(ctx, churn, churn) else {
        return;
    };
    let run = session.run_market_hours(2.0);
    if ctx.ops.call("probe run_market_hours", run).is_none() {
        return;
    }
    for _ in 0..5 {
        let taken = ctx
            .tracer
            .span("core.checkpoint_now", |_| session.checkpoint_now());
        ctx.ops.call("checkpoint_now", taken);
    }
    ctx.ops.call("probe finish", session.finish());
}

/// Per-layer metrics of a session workload, ending in the outside-in
/// layer table: each layer's share is this workload's counts times the
/// matching probe's unit cost over the session's wall time, and
/// `core.share_unattributed` is whatever that leaves (negative when the
/// probes' unit costs overstate what the session pays).
pub fn layers(ctx: &mut Ctx, churn: bool, reps: &[Rep], layers: &mut Layers) {
    let mut counted: Vec<Rep> = reps.to_vec();
    if !churn {
        // Nothing counts market events or BidBrain sweeps without a
        // recorder. The simulation is deterministic, so one more calm
        // session, observed and untimed, counts them for all.
        ctx.tracer.set_enabled(false);
        let observed = session(ctx, false, true);
        ctx.tracer.set_enabled(true);
        if let (Some(observed), Some(first)) = (observed, reps.first()) {
            ctx.ops.check(
                "recording leaves the session's bill unchanged",
                observed.exact[..first.exact.len()] == first.exact[..],
            );
            let keep = ["market.events", "bidbrain.decisions"];
            let counts: Vec<_> = observed
                .layer
                .into_iter()
                .filter(|(n, _)| keep.contains(n))
                .collect();
            for rep in &mut counted {
                rep.layer.extend(counts.iter().copied());
            }
        }
    }
    let reps = &counted[..];
    for name in [
        "market.steps",
        "market.events",
        "market.evictions",
        "market.refusals",
        "bidbrain.decisions",
        "bidbrain.forecast_alerts",
        "core.allocations",
        "core.evictions",
        "core.pre_drains",
        "core.checkpoints",
        "core.restarts",
        "core.cost_pct_of_on_demand",
    ] {
        layers.set_rep_median(name, reps);
    }
    let median_ms =
        |ctx: &Ctx, span: &str| Summary::of(&ctx.tracer.millis_of(span)).map(|s| s.median);
    for (metric, span) in [
        ("core.launch_ms", "core.launch"),
        ("core.run_day_ms_p50", "core.run_day"),
        ("core.finish_ms", "core.finish"),
        ("mlapps.data_gen_ms", "mlapps.data_gen"),
    ] {
        if let Some(ms) = median_ms(ctx, span) {
            layers.set(metric, ms);
        }
    }
    let jsonl_s = median_ms(ctx, "obs.to_jsonl").unwrap_or(0.0) / 1e3;
    checkpoint_probe(ctx, churn);
    if let Some(ms) = median_ms(ctx, "core.checkpoint_now") {
        layers.set("core.checkpoint_now_ms", ms);
    }

    let shape = ctx.sizes.session_mf;
    let (traces, beta) = probes::market_env(ctx, layers, SESSION_HISTORY, &market_model(churn));
    probes::market(ctx, layers, &traces);
    probes::bidbrain(ctx, layers, &traces, &beta, churn);
    train::elastic_probe(ctx, shape, config(ctx, churn).agile);
    train::agileml_layers(ctx.tracer, layers);
    if churn {
        layers.set_rep_median("obs.events", reps);
        probes::ps_snapshot(ctx, layers, u64::from(shape.rows + shape.cols), shape.rank);
        probes::obs(ctx, layers);
    }

    // The layer table.
    let rep_value = |name: &str| rep_median(reps, name).unwrap_or(0.0);
    let unit = |name: &str| layers.get(name).unwrap_or(0.0);
    let Some(wall_s) =
        Summary::of(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()).map(|s| s.median)
    else {
        return;
    };
    let steps = rep_value("market.steps");
    let allocations = rep_value("core.allocations");
    let evictions = rep_value("core.evictions");
    let rollbacks = rep_value("rollbacks");
    let requests = allocations + rep_value("market.refusals");
    let market_s =
        (steps * unit("market.advance_us_per_step") + requests * unit("market.request_us")) / 1e6;
    // Each tracked holding is observed once per step; a session
    // allocation is at most four machines.
    let observes = steps * rep_value("spot_machines") / 4.0;
    let bidbrain_s = rep_value("bidbrain.decisions") * unit("bidbrain.ranked_us_per_call") / 1e6
        + observes * unit("bidbrain.forecast_observe_ns") / 1e9;
    let agileml_s = (allocations * unit("agileml.add_machines_p50_ms")
        + (evictions - rollbacks).max(0.0) * unit("agileml.evict_warned_p50_ms")
        + rollbacks * unit("agileml.fail_rollback_p50_ms")
        + rep_value("core.pre_drains") * unit("agileml.predrain_p50_ms")
        + unit("agileml.shutdown_ms"))
        / 1e3;
    let model_mb = f64::from(shape.rows + shape.cols) * (shape.rank * 4) as f64 / 1e6;
    let encode_s = match unit("ps.snapshot_encode_mb_per_s") {
        rate if rate > 0.0 => model_mb / rate,
        _ => 0.0,
    };
    let snapshot_s = rep_value("core.checkpoints") * (unit("agileml.snapshot_ms") / 1e3 + encode_s);
    let obs_s = rep_value("obs.events") * unit("obs.record_ns_per_event") / 1e9 + jsonl_s;
    let shares = [
        ("core.share_market", market_s / wall_s),
        ("core.share_bidbrain", bidbrain_s / wall_s),
        ("core.share_agileml", agileml_s / wall_s),
        ("core.share_ps_snapshot", snapshot_s / wall_s),
        ("core.share_obs", obs_s / wall_s),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    for (name, share) in shares {
        layers.set(name, share);
    }
    layers.set("core.share_unattributed", 1.0 - attributed);
}
