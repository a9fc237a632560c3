//! GCE-preemptible job simulation (paper Sec. 7 generality claim).
//!
//! Google preemptible instances have no bidding and no refunds: a fixed
//! 70 % discount, Poisson preemptions, a 30-second warning, and a
//! 24-hour lifetime cap. BidBrain's cost-per-work framework still
//! applies — β comes from the preemption model instead of price-history
//! replay — and AgileML's elasticity still turns each preemption into a
//! short pause rather than a restart. This module simulates such a job
//! so the EC2-vs-GCE comparison is a tested library capability.

use proteus_bidbrain::{phi, AppParams};
use proteus_market::MarketKey;
use proteus_market::{GceMarket, PreemptionModel};
use proteus_simtime::rng::seeded;
use proteus_simtime::SimDuration;
use rand::Rng;

use crate::scheme::{JobSpec, ON_DEMAND_COUNT};

/// Progress pause per preemption (AgileML λ, the Proteus scheme's).
const EVICTION_PAUSE: SimDuration = SimDuration::from_secs(240);

/// Parameters of a GCE run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GceRunConfig {
    /// Preemption statistics.
    pub preemption: PreemptionModel,
    /// Simulation seed.
    pub seed: u64,
    /// Give up after this much simulated time.
    pub max_hours: f64,
}

impl Default for GceRunConfig {
    fn default() -> Self {
        GceRunConfig {
            preemption: PreemptionModel::default(),
            seed: 0,
            max_hours: 96.0,
        }
    }
}

/// Outcome of a GCE preemptible run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GceOutcome {
    /// Dollars billed (fixed discount price × machine-hours).
    pub cost: f64,
    /// Wall-clock hours to completion.
    pub runtime_hours: f64,
    /// Preemptions suffered.
    pub preemptions: u32,
    /// Whether the job finished before `max_hours`.
    pub completed: bool,
}

/// Runs a job on a GCE-style provider: a fixed-price preemptible fleet
/// of `market` instances covering the job's `target_cores` plus its
/// on-demand tier, Poisson preemptions, immediate replacement (no
/// bidding), λ pauses.
pub fn run_gce_job(job: &JobSpec, market: MarketKey, config: &GceRunConfig) -> GceOutcome {
    let gce = GceMarket::new(config.preemption);
    let od_price = market.instance_type().on_demand_price;
    let preemptible_price = gce.price(market);
    let vcpus = market.instance_type().vcpus;

    let fleet = f64::from(job.target_cores / vcpus);
    let mut cores = fleet * f64::from(vcpus);
    if job.on_demand_works {
        cores += f64::from(ON_DEMAND_COUNT * vcpus);
    }
    // φ-scaled core-hours per hour.
    let rate = cores * phi(AppParams::default().phi_per_doubling, cores);

    let fleet_rate_per_hour = fleet * config.preemption.preemptions_per_day / 24.0;
    let mut rng = seeded(config.seed);
    let mut exp_interval = || -> f64 {
        if fleet_rate_per_hour <= 0.0 {
            return f64::INFINITY;
        }
        let u: f64 = rng.gen_range(1e-12..1.0);
        -u.ln() / fleet_rate_per_hour
    };

    let step = 1.0 / 30.0; // Two-minute steps, matching the EC2 sim.
    let mut t = 0.0f64;
    let mut work = 0.0f64;
    let mut preemptions = 0u32;
    let mut next_preempt = exp_interval();
    let mut paused_until = 0.0f64;
    let mut completed = false;
    while t < config.max_hours {
        if t >= next_preempt {
            preemptions += 1;
            paused_until = paused_until.max(t + EVICTION_PAUSE.as_hours_f64());
            next_preempt = t + exp_interval();
        }
        if t >= paused_until {
            work += rate * step;
        }
        t += step;
        if work >= job.work_core_hours {
            completed = true;
            break;
        }
    }

    let cost = fleet * preemptible_price * t + f64::from(ON_DEMAND_COUNT) * od_price * t;
    GceOutcome {
        cost,
        runtime_hours: t,
        preemptions,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::default_on_demand_market;

    fn job() -> JobSpec {
        JobSpec::cluster_b_job(2.0, default_on_demand_market())
    }

    #[test]
    fn gce_run_completes_and_prices_at_fixed_discount() {
        let out = run_gce_job(&job(), default_on_demand_market(), &GceRunConfig::default());
        assert!(out.completed, "{out:?}");
        // Cost must be ~30% of the same machine-hours at on-demand price
        // (plus the small on-demand tier).
        let od_price = default_on_demand_market().instance_type().on_demand_price;
        let od_equiv = 384.0 * od_price * out.runtime_hours;
        assert!(
            out.cost < od_equiv * 0.45,
            "cost {} vs {}",
            out.cost,
            od_equiv
        );
        assert!(out.cost > od_equiv * 0.25);
    }

    #[test]
    fn preemption_pressure_slows_the_job() {
        let calm = run_gce_job(
            &job(),
            default_on_demand_market(),
            &GceRunConfig {
                preemption: PreemptionModel {
                    preemptions_per_day: 0.0,
                },
                ..GceRunConfig::default()
            },
        );
        let stormy = run_gce_job(
            &job(),
            default_on_demand_market(),
            &GceRunConfig {
                preemption: PreemptionModel {
                    preemptions_per_day: 10.0,
                },
                ..GceRunConfig::default()
            },
        );
        assert_eq!(calm.preemptions, 0);
        assert!(stormy.preemptions > 0);
        assert!(stormy.runtime_hours > calm.runtime_hours);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_gce_job(&job(), default_on_demand_market(), &GceRunConfig::default());
        let b = run_gce_job(&job(), default_on_demand_market(), &GceRunConfig::default());
        assert_eq!(a, b);
    }
}
