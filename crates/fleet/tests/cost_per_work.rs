//! The economic claim of a shared fleet (SpotTune's metric, PAPERS.md):
//! a hyperparameter sweep run through one fleet pays less per unit of
//! useful work than the same trials run as independent jobs, because the
//! shared pool bin-packs reliable slots that a per-job run must each
//! hold whole. Both sides are sim-time deterministic (measured: $0.0193
//! against $0.1063 per core-hour).

use proteus_bidbrain::BetaEstimator;
use proteus_costsim::{run_job, JobSpec, Scheme, SchemeKind, StudyExecutor};
use proteus_fleet::{run_sweep, FleetConfig, SweepConfig};
use proteus_market::{catalog, MarketModel, TraceGenerator};
use proteus_simtime::{SimDuration, SimTime};

#[test]
fn a_500_trial_sweep_beats_per_job_trials_on_cost_per_work() {
    // The full paper market set: every round ranks each pending gang
    // across all eight markets. β trains on the first twelve hours.
    let markets = catalog::paper_markets();
    let traces = TraceGenerator::new(41, MarketModel::default())
        .generate_set(&markets, SimDuration::from_hours(56));
    let mut beta = BetaEstimator::new();
    for k in &markets {
        beta.train(
            *k,
            traces.get(k).expect("generated"),
            SimTime::EPOCH,
            SimTime::from_hours(12),
            SimDuration::from_mins(30),
            &BetaEstimator::default_deltas(),
        );
    }
    let horizon = SimDuration::from_hours(40);
    let cfg = SweepConfig {
        trials: 500,
        gang: 2,
        rungs: vec![1.0, 2.0, 4.0],
        submit_every: SimDuration::from_secs(60),
        horizon,
        seed: 17,
    };
    let mut fleet_cfg = FleetConfig::paper_defaults(markets.clone());
    fleet_cfg.max_active_jobs = 64;
    let (sweep, _) =
        run_sweep(&traces, &beta, fleet_cfg, &cfg, &StudyExecutor::new(1)).expect("sweep runs");
    assert_eq!(sweep.trials.len(), 500, "every trial is accounted for");

    // The per-job baseline: each trial reruns as its own Proteus job
    // (the same BidBrain stack and AgileML overheads) sized to the work
    // the fleet accrued for it, holding the three dedicated reliable
    // machines every costsim job holds for its whole life, over the same
    // start and window so neither side gets a cheaper stretch of the
    // price history. BidBrain counts the reliable tier's cores toward
    // its target, so the target adds them to the gang's.
    let od = markets[0];
    let gang_cores = cfg.gang * od.instance_type().vcpus;
    let reliable_cores = 3 * od.instance_type().vcpus;
    let (mut per_job_cost, mut per_job_work) = (0.0, 0.0);
    for work in sweep.trials.iter().map(|t| t.work_done) {
        if work <= 1e-6 {
            continue;
        }
        let job = JobSpec {
            work_core_hours: work,
            on_demand_market: od,
            on_demand_works: false,
            target_cores: reliable_cores + gang_cores,
        };
        let kind = SchemeKind::paper_proteus();
        let scheme = Scheme { kind, job };
        per_job_cost += run_job(&scheme, &traces, &beta, SimTime::EPOCH, horizon).cost;
        per_job_work += work;
    }
    let (fleet, per_job) = (sweep.fleet.cost_per_work(), per_job_cost / per_job_work);
    assert!(
        fleet < per_job,
        "fleet ${fleet:.4} per core-hour must beat per-job ${per_job:.4}"
    );
}
