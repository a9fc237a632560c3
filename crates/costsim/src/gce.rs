//! A GCE preemptible market (paper Sec. 6.4) runs through the one job
//! loop: a `TraceSet::insert_preemptible` entry the provider serves and
//! [`run_job`] runs like any spot market, its β from
//! `BetaEstimator::insert_preemptible`.

mod tests {
    use crate::scheme::{JobSpec, Scheme, SchemeKind};
    use crate::sim::{run_job, SimOutcome};
    use proteus_bidbrain::BetaEstimator;
    use proteus_market::{MarketKey, PreemptionModel, TraceSet, Zone};
    use proteus_simtime::{SimDuration, SimTime};

    /// A 2-hour Proteus job on one GCE preemptible market (c4.xlarge,
    /// β from the model) at `preemptions_per_day`, from each of eight
    /// starts five hours apart.
    fn gce_jobs(preemptions_per_day: f64) -> Vec<SimOutcome> {
        let market = MarketKey::new(proteus_market::catalog::c4_xlarge(), Zone::GCE);
        let model = PreemptionModel {
            preemptions_per_day,
        };
        let mut traces = TraceSet::new();
        traces.insert_preemptible(market, model);
        let mut beta = BetaEstimator::new();
        beta.insert_preemptible(market, &model);
        let scheme = Scheme {
            kind: SchemeKind::paper_proteus(),
            job: JobSpec::cluster_b_job(2.0, market),
        };
        let horizon = SimDuration::from_hours(48);
        (0..8)
            .map(|i| run_job(&scheme, &traces, &beta, SimTime::from_hours(5 * i), horizon))
            .collect()
    }

    fn hours(outs: &[SimOutcome]) -> f64 {
        outs.iter().map(|o| o.runtime.as_hours_f64()).sum()
    }

    /// The job completes and pays 25–45 % of what its machine-hours cost
    /// on demand: a fixed 70 % discount, plus the three on-demand
    /// machines at full price.
    #[test]
    fn gce_run_completes_and_prices_at_fixed_discount() {
        let od_price = proteus_market::catalog::all()[0].on_demand_price;
        for out in gce_jobs(0.0).iter().chain(&gce_jobs(10.0)) {
            assert!(out.completed, "{out:?}");
            let share = out.cost / (out.usage.total_hours() * od_price);
            assert!((0.25..0.45).contains(&share), "{share}: {out:?}");
        }
    }

    /// Never evicted at rate 0; evicted and slower at rate 10 a day.
    #[test]
    fn preemption_pressure_slows_the_job() {
        let calm = gce_jobs(0.0);
        let stormy = gce_jobs(10.0);
        assert!(calm.iter().all(|o| o.evictions == 0), "{calm:?}");
        assert!(stormy.iter().any(|o| o.evictions > 0), "{stormy:?}");
        assert!(hours(&stormy) > hours(&calm), "{stormy:?} vs {calm:?}");
    }

    /// Lease fates are drawn from the allocation id and grant instant, so
    /// the same runs replay.
    #[test]
    fn deterministic_under_seed() {
        assert_eq!(gce_jobs(10.0), gce_jobs(10.0));
    }
}
