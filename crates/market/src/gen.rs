//! Synthetic spot-price trace generation.
//!
//! Real AWS price history from 2016 is unavailable offline, so traces are
//! synthesized with the qualitative character visible in the paper's
//! Fig. 3 and documented in the spot-pricing literature the paper cites:
//!
//! * a *calm* regime where the price sits at a small fraction of the
//!   on-demand price (spot discounts of 70–80 %) with mild multiplicative
//!   jitter and occasional small drifts;
//! * sharp *spike* regimes, arriving roughly as a Poisson process, where
//!   the price jumps well above the on-demand price for minutes to tens of
//!   minutes (these produce the evictions — and the free compute — that
//!   BidBrain reasons about);
//! * independent evolution per (instance type, zone) market.
//!
//! Everything is parameterized by [`MarketModel`] and fully deterministic
//! under a seed.

use proteus_simtime::rng::seeded_stream;
use proteus_simtime::{SimDuration, SimTime};
use rand::Rng;

use crate::instance::MarketKey;
use crate::trace::{PriceTrace, TraceSet};

/// Statistical parameters of one market's synthetic price process.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketModel {
    /// Calm-regime price as a fraction of the on-demand price
    /// (EC2 spot discounts are typically 70–80 %, so 0.2–0.3).
    pub base_fraction: f64,
    /// Multiplicative jitter amplitude within the calm regime (e.g. 0.10
    /// allows ±10 % wiggle around the base price).
    pub jitter: f64,
    /// Mean minutes between calm-regime price updates.
    pub calm_step_mins: f64,
    /// Mean spikes per 24 simulated hours.
    pub spikes_per_day: f64,
    /// Spike peak as a multiple of the on-demand price, lower bound.
    pub spike_mult_min: f64,
    /// Spike peak as a multiple of the on-demand price, upper bound.
    pub spike_mult_max: f64,
    /// Mean spike duration in minutes.
    pub spike_duration_mins: f64,
}

impl Default for MarketModel {
    fn default() -> Self {
        MarketModel {
            base_fraction: 0.24,
            jitter: 0.10,
            calm_step_mins: 9.0,
            spikes_per_day: 5.0,
            spike_mult_min: 1.1,
            spike_mult_max: 6.0,
            spike_duration_mins: 12.0,
        }
    }
}

impl MarketModel {
    /// A calmer market with rarer, shorter spikes — handy for experiments
    /// that need low eviction pressure.
    pub fn calm() -> Self {
        MarketModel {
            spikes_per_day: 1.5,
            spike_duration_mins: 6.0,
            ..MarketModel::default()
        }
    }

    /// A turbulent market with frequent spikes — high eviction pressure.
    pub fn volatile() -> Self {
        MarketModel {
            spikes_per_day: 12.0,
            spike_duration_mins: 20.0,
            jitter: 0.18,
            ..MarketModel::default()
        }
    }
}

/// Deterministic synthetic trace generator.
///
/// # Examples
///
/// ```
/// use proteus_market::{catalog, MarketModel, TraceGenerator, Zone, MarketKey};
/// use proteus_simtime::{SimDuration, SimTime};
///
/// let gen = TraceGenerator::new(42, MarketModel::default());
/// let key = MarketKey::new(catalog::c4_xlarge(), Zone(0));
/// let trace = gen.generate(key, SimDuration::from_hours(24));
/// let od = key.instance_type().on_demand_price;
/// // The market spends the overwhelming majority of its time below
/// // the on-demand price.
/// let frac = trace.fraction_above(od, SimTime::EPOCH, SimTime::from_hours(24));
/// assert!(frac < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    seed: u64,
    model: MarketModel,
}

impl TraceGenerator {
    /// Creates a generator with an experiment seed and market model.
    pub fn new(seed: u64, model: MarketModel) -> Self {
        TraceGenerator { seed, model }
    }

    /// Generates the price trace for one market over `[0, horizon]`.
    ///
    /// The RNG stream is derived from the market key, so each market's
    /// trace is independent yet reproducible, and generating one market
    /// does not perturb another.
    pub fn generate(&self, key: MarketKey, horizon: SimDuration) -> PriceTrace {
        let stream = (key.type_index as u64) << 8 | u64::from(key.zone.0);
        let mut rng = seeded_stream(self.seed, stream);
        let od = key.instance_type().on_demand_price;
        let base = od * self.model.base_fraction;
        let m = &self.model;

        let mut points: Vec<(SimTime, f64)> = Vec::new();
        let mut t = SimTime::EPOCH;
        let end = SimTime::EPOCH + horizon;
        // Price floor: AWS markets rarely drop below a few percent of
        // on-demand.
        let floor = od * 0.05;

        // Draw the first spike arrival.
        let mut next_spike =
            SimTime::EPOCH + exp_duration(&mut rng, 24.0 * 60.0 / m.spikes_per_day);

        let mut price = jittered(&mut rng, base, m.jitter).max(floor);
        points.push((t, price));

        while t < end {
            let step = exp_duration(&mut rng, m.calm_step_mins);
            let mut next_calm = t + step;
            if next_calm <= t {
                next_calm = t + SimDuration::from_secs(30);
            }
            if next_spike <= next_calm && next_spike < end {
                // Enter a spike regime.
                let mult = rng.gen_range(m.spike_mult_min..m.spike_mult_max);
                let spike_price = od * mult;
                let dur =
                    exp_duration(&mut rng, m.spike_duration_mins).max(SimDuration::from_mins(1));
                push_point(&mut points, next_spike, spike_price);
                let spike_end = next_spike + dur;
                // Fall back to a fresh calm price after the spike.
                price = jittered(&mut rng, base, m.jitter).max(floor);
                if spike_end < end {
                    push_point(&mut points, spike_end, price);
                }
                t = spike_end;
                next_spike = t + exp_duration(&mut rng, 24.0 * 60.0 / m.spikes_per_day);
            } else {
                // Calm-regime update: multiplicative random walk that mean
                // reverts towards the base price.
                let reverted = 0.8 * price + 0.2 * base;
                price = jittered(&mut rng, reverted, m.jitter).max(floor);
                if next_calm < end {
                    push_point(&mut points, next_calm, price);
                }
                t = next_calm;
            }
        }

        // Invariant: push_point deduplicates equal timestamps and the
        // loop emits strictly forward in time with positive prices —
        // exactly the well-formedness from_points checks.
        #[allow(clippy::expect_used)]
        PriceTrace::from_points(points).expect("generator produces well-formed traces")
    }

    /// Generates traces for every market in `keys` over `[0, horizon]`.
    pub fn generate_set(&self, keys: &[MarketKey], horizon: SimDuration) -> TraceSet {
        let mut set = TraceSet::new();
        for &key in keys {
            set.insert(key, self.generate(key, horizon));
        }
        set
    }
}

/// Multiplicative jitter around `center`.
fn jittered(rng: &mut impl Rng, center: f64, jitter: f64) -> f64 {
    let factor = 1.0 + rng.gen_range(-jitter..jitter);
    center * factor
}

/// An exponentially distributed duration with the given mean (minutes).
fn exp_duration(rng: &mut impl Rng, mean_mins: f64) -> SimDuration {
    let u: f64 = rng.gen_range(1e-12..1.0);
    SimDuration::from_secs_f64(-mean_mins.max(1e-6) * 60.0 * u.ln())
}

fn push_point(points: &mut Vec<(SimTime, f64)>, t: SimTime, price: f64) {
    match points.last_mut() {
        Some((last_t, last_p)) if *last_t == t => *last_p = price,
        _ => points.push((t, price)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{catalog, Zone};

    fn key() -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(0))
    }

    #[test]
    fn generation_is_deterministic() {
        let g1 = TraceGenerator::new(7, MarketModel::default());
        let g2 = TraceGenerator::new(7, MarketModel::default());
        let h = SimDuration::from_hours(48);
        assert_eq!(g1.generate(key(), h), g2.generate(key(), h));
    }

    #[test]
    fn different_seeds_differ() {
        let h = SimDuration::from_hours(48);
        let a = TraceGenerator::new(1, MarketModel::default()).generate(key(), h);
        let b = TraceGenerator::new(2, MarketModel::default()).generate(key(), h);
        assert_ne!(a, b);
    }

    #[test]
    fn markets_evolve_independently() {
        let g = TraceGenerator::new(7, MarketModel::default());
        let h = SimDuration::from_hours(48);
        let a = g.generate(MarketKey::new(catalog::c4_xlarge(), Zone(0)), h);
        let b = g.generate(MarketKey::new(catalog::c4_xlarge(), Zone(1)), h);
        assert_ne!(a, b);
    }

    #[test]
    fn calm_price_sits_near_discount_level() {
        let g = TraceGenerator::new(11, MarketModel::default());
        let h = SimDuration::from_hours(24 * 7);
        let trace = g.generate(key(), h);
        let od = key().instance_type().on_demand_price;
        let mean = trace.mean_price(SimTime::EPOCH, SimTime::EPOCH + h);
        // Mean is pulled up by spikes, but should stay well below
        // on-demand and above the floor.
        assert!(mean > 0.05 * od, "mean {mean} too low");
        assert!(mean < 0.8 * od, "mean {mean} too high vs on-demand {od}");
    }

    #[test]
    fn spikes_exceed_on_demand_occasionally() {
        let g = TraceGenerator::new(13, MarketModel::default());
        let h = SimDuration::from_hours(24 * 7);
        let trace = g.generate(key(), h);
        let od = key().instance_type().on_demand_price;
        let frac = trace.fraction_above(od, SimTime::EPOCH, SimTime::EPOCH + h);
        assert!(frac > 0.0, "a week of default market should show spikes");
        assert!(frac < 0.2, "spikes should be rare, got fraction {frac}");
    }

    #[test]
    fn volatile_spikes_more_than_calm() {
        let h = SimDuration::from_hours(24 * 14);
        let od = key().instance_type().on_demand_price;
        let calm = TraceGenerator::new(5, MarketModel::calm()).generate(key(), h);
        let wild = TraceGenerator::new(5, MarketModel::volatile()).generate(key(), h);
        let fc = calm.fraction_above(od, SimTime::EPOCH, SimTime::EPOCH + h);
        let fw = wild.fraction_above(od, SimTime::EPOCH, SimTime::EPOCH + h);
        assert!(
            fw > fc,
            "volatile ({fw}) should spike more than calm ({fc})"
        );
    }

    #[test]
    fn generated_traces_match_their_model_statistics() {
        let model = MarketModel::default();
        let days = 30;
        let horizon = SimDuration::from_hours(24 * days);
        let trace = TraceGenerator::new(31, model.clone()).generate(key(), horizon);
        let od = key().instance_type().on_demand_price;
        // An excursion starts at every point that lifts the price above
        // on-demand. The generator draws spikes at `spikes_per_day`, but
        // only those whose peak clears the on-demand level count here.
        let mut excursions = 0u32;
        let mut above = false;
        for &(_, price) in trace.points() {
            excursions += u32::from(price > od && !above);
            above = price > od;
        }
        let per_day = f64::from(excursions) / days as f64;
        assert!(
            per_day > model.spikes_per_day * 0.5 && per_day < model.spikes_per_day * 1.5,
            "spike rate {per_day} vs model {}",
            model.spikes_per_day
        );
        assert!(trace.mean_price(SimTime::EPOCH, SimTime::EPOCH + horizon) < od * 0.8);
    }

    #[test]
    fn generate_set_covers_all_keys() {
        let g = TraceGenerator::new(3, MarketModel::default());
        let keys = catalog::paper_markets();
        let set = g.generate_set(&keys, SimDuration::from_hours(4));
        assert_eq!(set.len(), keys.len());
        for k in &keys {
            assert!(set.get(k).is_some());
        }
    }

    #[test]
    fn prices_always_positive() {
        let g = TraceGenerator::new(17, MarketModel::volatile());
        let trace = g.generate(key(), SimDuration::from_hours(24 * 30));
        assert!(trace.points().iter().all(|(_, p)| *p > 0.0));
    }
}
