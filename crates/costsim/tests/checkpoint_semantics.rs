//! Direct checks of the checkpoint baseline's semantics on scripted
//! markets: work rollback on eviction and restart delays — the
//! mechanisms whose absence is AgileML's advantage — and, on a generated
//! volatile market, that forecasting when to checkpoint pays.

use proteus_bidbrain::BetaEstimator;
use proteus_costsim::{run_job, JobSpec, Scheme, SchemeKind, StudyConfig, StudyEnv};
use proteus_market::{MarketModel, PriceTrace, TraceSet};
use proteus_simtime::{SimDuration, SimTime};

fn on_demand_market() -> proteus_market::MarketKey {
    proteus_market::MarketKey::new(
        proteus_market::catalog::c4_xlarge(),
        proteus_market::Zone(0),
    )
}

/// A trace that spikes above the on-demand price at `spike_min` minutes
/// for ten minutes, evicting anyone bidding the on-demand price.
fn spiking_trace(spike_min: u64) -> TraceSet {
    let od = on_demand_market().instance_type().on_demand_price;
    let spike_at = SimTime::EPOCH + SimDuration::from_mins(spike_min);
    let spike_end = spike_at + SimDuration::from_mins(10);
    let mut set = TraceSet::new();
    set.insert(
        on_demand_market(),
        PriceTrace::from_points(vec![
            (SimTime::EPOCH, 0.05),
            (spike_at, od * 3.0),
            (spike_end, 0.05),
        ])
        .expect("valid trace"),
    );
    set
}

fn job() -> JobSpec {
    JobSpec::cluster_b_job(2.0, on_demand_market())
}

#[test]
fn one_eviction_costs_checkpoint_scheme_more_than_agileml() {
    // Both schemes hit exactly one eviction (the scripted spike). The
    // checkpoint scheme pays a work rollback plus a restart delay; the
    // AgileML scheme pays only the eviction pause.
    let beta = BetaEstimator::new();
    let horizon = SimDuration::from_hours(24);
    let ckpt = run_job(
        &Scheme {
            kind: SchemeKind::paper_checkpoint(),
            job: job(),
        },
        &spiking_trace(45),
        &beta,
        SimTime::EPOCH,
        horizon,
    );
    let agile = run_job(
        &Scheme {
            kind: SchemeKind::paper_standard_agileml(),
            job: job(),
        },
        &spiking_trace(45),
        &beta,
        SimTime::EPOCH,
        horizon,
    );
    assert!(ckpt.completed && agile.completed);
    assert_eq!(ckpt.evictions, 1, "{ckpt:?}");
    assert_eq!(agile.evictions, 1, "{agile:?}");
    assert!(
        ckpt.runtime > agile.runtime,
        "rollback + restart must cost more than a drain: {:?} vs {:?}",
        ckpt.runtime,
        agile.runtime
    );
    // The runtime gap exceeds the pure restart delay: work was lost too.
    let gap = ckpt.runtime - agile.runtime;
    assert!(
        gap > SimDuration::from_mins(5),
        "rollback loss visible in the runtime gap: {gap}"
    );
}

#[test]
fn late_spike_hurts_checkpoint_scheme_more_than_early_spike() {
    // An eviction just before the job would finish discards more
    // un-checkpointed work than one right after a checkpoint; AgileML's
    // loss is position-independent.
    let beta = BetaEstimator::new();
    let horizon = SimDuration::from_hours(24);
    let early = run_job(
        &Scheme {
            kind: SchemeKind::paper_checkpoint(),
            job: job(),
        },
        &spiking_trace(10),
        &beta,
        SimTime::EPOCH,
        horizon,
    );
    let late = run_job(
        &Scheme {
            kind: SchemeKind::paper_checkpoint(),
            job: job(),
        },
        &spiking_trace(110),
        &beta,
        SimTime::EPOCH,
        horizon,
    );
    assert!(early.completed && late.completed);
    // Both suffer one eviction; the later one wastes more total time
    // because more accumulated-but-uncheckpointed work is redone.
    assert_eq!(early.evictions, 1);
    assert_eq!(late.evictions, 1);
    assert!(
        late.runtime >= early.runtime,
        "late evictions redo more work: {:?} vs {:?}",
        late.runtime,
        early.runtime
    );
}

#[test]
fn all_on_demand_is_immune_to_spikes() {
    let beta = BetaEstimator::new();
    let od = run_job(
        &Scheme {
            kind: SchemeKind::AllOnDemand { machines: 128 },
            job: job(),
        },
        &spiking_trace(30),
        &beta,
        SimTime::EPOCH,
        SimDuration::from_hours(24),
    );
    assert!(od.completed);
    assert_eq!(od.evictions, 0);
    assert!((od.runtime.as_hours_f64() - 2.0).abs() < 0.05);
}

#[test]
fn forecast_driven_checkpoints_beat_the_fixed_cadence_on_a_volatile_market() {
    // Parcae's argument (PAPERS.md), on the figures' own study shape:
    // the reactive baseline checkpoints on a fixed MTTF-derived cadence
    // and rolls back on every eviction; the proactive scheme floats its
    // cadence on live hazard and checkpoints at once on an alert, so a
    // predicted eviction loses at most one step. Runtime above the
    // eviction-free two hours is recomputed or taxed work, and both
    // sides are sim-time deterministic (measured: 2.37 h vs 3.03 h).
    let env = StudyEnv::new(StudyConfig {
        seed: 2016,
        train_days: 14,
        eval_days: 28,
        starts: 50,
        job_hours: 2.0,
        market_model: MarketModel::volatile(),
        max_job_hours: 72.0,
        market_faults: None,
    });
    let reactive = env.run_scheme(SchemeKind::paper_checkpoint());
    let proactive = env.run_scheme(SchemeKind::paper_adaptive_checkpoint());
    assert!(
        proactive.mean_runtime_hours < reactive.mean_runtime_hours,
        "proactive {} h must save work over reactive {} h",
        proactive.mean_runtime_hours,
        reactive.mean_runtime_hours
    );
}
