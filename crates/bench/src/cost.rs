//! The cost study's figures (Figs. 1, 8–10) and the ablations run on
//! the same traces.

use std::io;

use proteus_costsim::{
    run_gce_job, run_job, run_study, GceRunConfig, JobSpec, Scheme, SchemeKind, StudyEnv,
    StudyResult,
};
use proteus_market::gce::{GceMarket, GCE_DISCOUNT};
use proteus_market::MarketModel;
use proteus_simtime::SimDuration;

use crate::{standard_study, Out, Table};

/// The three configurations of Figs. 1 and 10: the on-demand fleet, the
/// checkpointing baseline and Proteus (3 on-demand + spot).
fn headline_schemes(env: &StudyEnv) -> [StudyResult; 3] {
    [
        SchemeKind::AllOnDemand { machines: 128 },
        SchemeKind::paper_checkpoint(),
        SchemeKind::paper_proteus(),
    ]
    .map(|kind| env.run_scheme(kind))
}

/// Fig. 1 — the headline: average cost and runtime of an MLR job (~4
/// hours on the on-demand fleet).
pub fn fig01(out: Out) -> io::Result<()> {
    let results = headline_schemes(&StudyEnv::new(standard_study(4.0, 60)));
    let max_cost = results.iter().map(|r| r.mean_cost).fold(0.0, f64::max);
    let mut t = Table::new(out, "config:22|cost $:10.2|time h:10.2|cost bar")?;
    for r in &results {
        let (cost, hours) = (r.mean_cost, r.mean_runtime_hours);
        t.bar_row(&[&r.scheme, &cost, &hours], cost, max_cost)?;
    }
    let [od, ckpt, proteus] = &results;
    let saved = |ours: f64, theirs: f64| 100.0 * (1.0 - ours / theirs);
    writeln!(
        out,
        "\nProteus cost reduction: {:.0}% vs on-demand (paper: ~85%), {:.0}% vs checkpointing (paper: ~50%)\n\
         Proteus runtime reduction: {:.0}% vs on-demand (paper: 24%), {:.0}% vs checkpointing (paper: 32-43%)",
        saved(proteus.mean_cost, od.mean_cost),
        saved(proteus.mean_cost, ckpt.mean_cost),
        saved(proteus.mean_runtime_hours, od.mean_runtime_hours),
        saved(proteus.mean_runtime_hours, ckpt.mean_runtime_hours),
    )
}

/// Figs. 8 and 9, parts (a) and (b): cost normalized to the same job on
/// 64 on-demand machines (the paper's Cluster-A reference) and runtime,
/// for the three spot schemes across random start times in every zone.
/// Returns `(cost %, hours)` of Proteus and the checkpointing baseline.
fn cost_and_runtime(out: Out, job_hours: f64, starts: usize) -> io::Result<[(f64, f64); 2]> {
    let results = run_study(standard_study(job_hours, starts));
    let spot = || results.iter().filter(|r| r.scheme != "AllOnDemand");
    let series = |value: fn(&StudyResult) -> f64| -> Vec<(String, f64)> {
        spot().map(|r| (r.scheme.clone(), value(r))).collect()
    };
    writeln!(out, "(a) cost, % of on-demand")?;
    Table::new(out, ":22|:9.1%")?.bars(&series(|r| r.cost_pct_of_on_demand))?;
    writeln!(out, "\n(b) runtime, hours")?;
    Table::new(out, ":22|:9.2h")?.bars(&series(|r| r.mean_runtime_hours))?;
    let of = |scheme: &str| {
        let found = spot().find(|r| r.scheme == scheme);
        let r = found.ok_or_else(|| io::Error::other(format!("study has no `{scheme}` scheme")))?;
        Ok::<_, io::Error>((r.cost_pct_of_on_demand, r.mean_runtime_hours))
    };
    Ok([of("Proteus")?, of("Standard+Checkpoint")?])
}

/// Fig. 8 — 2-hour jobs: cost savings (a) and runtime (b).
pub fn fig08(out: Out) -> io::Result<()> {
    let [(p_cost, p_hours), (c_cost, c_hours)] = cost_and_runtime(out, 2.0, 120)?;
    writeln!(
        out,
        "\nProteus: {:.0}% cheaper than on-demand (paper: 83-85%), {:.0}% cheaper than checkpointing (paper: 42-47%), {:.0}% faster than checkpointing (paper: 32-43%)",
        100.0 - p_cost,
        100.0 * (1.0 - p_cost / c_cost),
        100.0 * (1.0 - p_hours / c_hours)
    )
}

/// Fig. 9 — the same for 20-hour jobs, the duration representative of
/// hyperparameter-exploration sequences.
pub fn fig09(out: Out) -> io::Result<()> {
    let [(p_cost, _), (c_cost, _)] = cost_and_runtime(out, 20.0, 40)?;
    writeln!(
        out,
        "\nProteus: {:.0}% below on-demand (paper: 83-85%), {:.0}% below checkpointing (paper: 42-47%)",
        100.0 - p_cost,
        100.0 * (1.0 - p_cost / c_cost)
    )
}

/// Fig. 10 — machine-hours of a 2-hour job split among on-demand, spot
/// (paid) and free (evicted before the end of the billing hour).
pub fn fig10(out: Out) -> io::Result<()> {
    let starts = 80;
    let spec = "config:22|on-demand h:12.1|spot h:12.1|free h:12.1|% free:8.1";
    let mut t = Table::new(out, spec)?;
    for r in headline_schemes(&StudyEnv::new(standard_study(2.0, starts))) {
        let [od, spot, free] = [
            r.usage.on_demand_hours,
            r.usage.spot_paid_hours,
            r.usage.free_hours,
        ]
        .map(|hours| hours / starts as f64);
        let pct_free = 100.0 * r.usage.free_fraction();
        t.row(&[&r.scheme, &od, &spot, &free, &pct_free])?;
    }
    writeln!(
        out,
        "\npaper: Proteus averages 32% free computing; the standard bidding\n\
         schemes bid the on-demand price and therefore collect almost none."
    )
}

/// Ablation — adaptive bid deltas vs fixed deltas. The paper (Sec. 6.3)
/// reports that always bidding just above the market price to farm free
/// compute backfires (3–4× runtime, higher cost from too-frequent
/// evictions), while BidBrain's β-aware sweep finds a happy medium.
pub fn ablate_bid_delta(out: Out) -> io::Result<()> {
    let env = StudyEnv::new(standard_study(2.0, 50));
    let spec = "policy:16|cost $:10.2|% on-demand:12.1|hours:10.2|evictions:10.2|% free:8.0";
    let mut t = Table::new(out, spec)?;
    let mut policy = |label: String, kind: SchemeKind| {
        let r = env.run_scheme(kind);
        let (cost, pct, hours) = (r.mean_cost, r.cost_pct_of_on_demand, r.mean_runtime_hours);
        let (evictions, free) = (r.mean_evictions, 100.0 * r.usage.free_fraction());
        t.row(&[&label, &cost, &pct, &hours, &evictions, &free])
    };
    for delta in [0.0001, 0.005, 0.05, 0.4] {
        let kind = SchemeKind::proteus_fixed_delta(delta);
        policy(format!("fixed ${delta}"), kind)?;
    }
    policy("adaptive".into(), SchemeKind::paper_proteus())?;
    writeln!(
        out,
        "\nexpected shape: the tiniest delta maximizes free compute but suffers\n\
         the most evictions and the worst runtime; the largest delta is safe but\n\
         collects no refunds; adaptive sits at or near the best cost."
    )
}

/// Ablation — checkpoint-period sensitivity for the baseline scheme,
/// which trades steady-state overhead (frequent checkpoints) against
/// rollback loss (rare ones). The paper uses an MTTF-derived frequency
/// costing ~17% throughput.
pub fn ablate_checkpoint_period(out: Out) -> io::Result<()> {
    let mut cfg = standard_study(2.0, 50);
    cfg.market_model = MarketModel::volatile();
    let env = StudyEnv::new(cfg);
    let spec = "configuration:26|cost $:10.2|hours:10.2|evictions:10.2";
    let mut t = Table::new(out, spec)?;
    let mut config = |label: String, kind: SchemeKind| {
        let r = env.run_scheme(kind);
        let (cost, hours, evictions) = (r.mean_cost, r.mean_runtime_hours, r.mean_evictions);
        t.row(&[&label, &cost, &hours, &evictions])
    };
    // Overhead scales inversely with interval (Young's approximation):
    // the paper's 17% sits near interval ≈ 170 core-hours.
    for (interval, overhead) in [
        (42.5, 0.34),
        (85.0, 0.24),
        (170.0, 0.17),
        (340.0, 0.12),
        (680.0, 0.085),
    ] {
        let kind = SchemeKind::StandardCheckpoint {
            checkpoint_overhead: overhead,
            checkpoint_interval_core_hours: interval,
            restart_delay: SimDuration::from_mins(8),
        };
        let label = format!("ckpt every {interval} c-h ({:.0}%)", overhead * 100.0);
        config(label, kind)?;
    }
    // The adaptive arm replaces the fixed cadence with Young's rule on
    // live forecasted hazard: near-zero tax on calm stretches, dense
    // checkpoints (plus alert-triggered ones) when eviction looms.
    let adaptive = SchemeKind::paper_adaptive_checkpoint();
    config("adaptive (forecast-driven)".into(), adaptive)?;
    let agileml = SchemeKind::paper_standard_agileml();
    config("Standard+AgileML".into(), agileml)?;
    writeln!(
        out,
        "\nexpected shape: a U-shaped trade-off with the MTTF-derived setting near\n\
         the bottom, the adaptive arm beating the whole fixed curve, and AgileML\n\
         beating every checkpointing variant."
    )
}

/// Extension — BidBrain beyond the EC2 spot market (paper Sec. 7): the
/// same cost-per-work objective on a GCE-style provider shows how much
/// of Proteus' EC2 win is AWS-specific refund farming and how much
/// plain transient-discount exploitation.
pub fn ablate_gce(out: Out) -> io::Result<()> {
    // EC2 side: the full Proteus study (refunds + multi-market).
    let env = StudyEnv::new(standard_study(2.0, 50));
    let ec2 = env.run_scheme(SchemeKind::paper_proteus());
    let od_baseline = env.on_demand_baseline().cost;

    // GCE side: a fixed 70 % discount (no bidding, no free-compute
    // refunds) and β from an exogenous Poisson preemption process. 384
    // preemptible instances (1536 cores / 4) plus the 3 on-demand ones,
    // which compute too; each preemption costs a λ pause and is replaced
    // at once (no bidding on GCE). β for a one-hour horizon comes
    // straight from the model — the analogue the paper sketches in
    // Sec. 7.
    let config = GceRunConfig {
        seed: 2016,
        max_hours: 48.0,
        ..GceRunConfig::default()
    };
    let beta_hour =
        GceMarket::new(config.preemption).preemption_probability(SimDuration::from_hours(1));
    let job = JobSpec {
        on_demand_works: true,
        ..env.job()
    };
    let gce = run_gce_job(&job, env.on_demand_market, &config);
    writeln!(
        out,
        "per-instance one-hour preemption probability β = {beta_hour:.4}\n"
    )?;

    let spec = "provider:28|cost $:10.2|% of on-demand:14.1|hours:10.2|preemptions:12.2";
    let mut t = Table::new(out, spec)?;
    let pct = |cost: f64| 100.0 * cost / od_baseline;
    let (cost, hours, evicted) = (ec2.mean_cost, ec2.mean_runtime_hours, ec2.mean_evictions);
    t.row(&[&"EC2 spot (Proteus)", &cost, &pct(cost), &hours, &evicted])?;
    let label = format!("GCE preemptible ({:.0}% off)", GCE_DISCOUNT * 100.0);
    let (cost, hours, preempted) = (gce.cost, gce.runtime_hours, gce.preemptions);
    t.row(&[&label, &cost, &pct(cost), &hours, &preempted])?;
    writeln!(
        out,
        "\nEC2 refund farming contributes the gap between the two rows; the bulk of\n\
         the savings — the transient discount itself — transfers to any provider\n\
         (the paper's Sec. 7 argument)."
    )
}

/// Ablation — BidBrain optimizes E_A = C_A / W_A rather than raw cost:
/// the paper's Fig. 6 shows a second spot allocation *raising*
/// instantaneous cost while *lowering* cost-per-work (and hence final
/// job cost). Raw-cost minimization is approximated by a Proteus
/// variant capped at one standard fleet.
pub fn ablate_objective(out: Out) -> io::Result<()> {
    let env = StudyEnv::new(standard_study(2.0, 50));
    let full = env.run_scheme(SchemeKind::paper_proteus());

    // Minimal-footprint variant: same bidding machinery, but capped at
    // one fleet's worth of cores (cannot amortize by growing).
    let mut job = env.job();
    job.target_cores = 256;
    let kind = SchemeKind::paper_proteus();
    let scheme = Scheme { kind, job };
    let (mut cost, mut hours) = (0.0, 0.0);
    for &start in &env.starts {
        let horizon = SimDuration::from_hours(72);
        let o = run_job(&scheme, &env.traces, &env.beta, start, horizon);
        cost += o.cost;
        hours += o.runtime.as_hours_f64();
    }
    let n = env.starts.len() as f64;

    let mut t = Table::new(out, "policy:26|cost $:10.2|hours:10.2")?;
    t.row(&[&"min-footprint (256 cores)", &(cost / n), &(hours / n)])?;
    let (cost, hours) = (full.mean_cost, full.mean_runtime_hours);
    t.row(&[&"cost-per-work (1536 cores)", &cost, &hours])?;
    writeln!(
        out,
        "\nexpected shape: the cost-per-work policy runs much faster for similar or\n\
         lower cost — growing the footprint amortizes the fixed on-demand expense\n\
         (the paper's Fig. 6 phase-2 lesson)."
    )
}
