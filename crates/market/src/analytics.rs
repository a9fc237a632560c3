//! Price-trace analytics: spike detection and market characterization.
//!
//! BidBrain's bidding quality depends on the *character* of a market —
//! how often it spikes, how long spikes last, how deep the calm-regime
//! discount is. This module extracts those statistics from any
//! [`PriceTrace`], supporting the Fig. 3 reproduction, market-model
//! calibration, and market-selection diagnostics.

use proteus_simtime::{SimDuration, SimTime};

use crate::trace::PriceTrace;

/// One contiguous interval during which the price exceeded a level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    /// When the price first exceeded the level.
    pub start: SimTime,
    /// When it fell back (or the analysis window ended).
    pub end: SimTime,
    /// The maximum price reached within the spike.
    pub peak: f64,
}

impl Spike {
    /// Spike duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Summary statistics of a trace over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketStats {
    /// Time-weighted mean price.
    pub mean_price: f64,
    /// Minimum price observed.
    pub min_price: f64,
    /// Maximum price observed.
    pub max_price: f64,
    /// Fraction of time the price exceeded the reference level.
    pub fraction_above_ref: f64,
    /// Spikes (excursions above the reference level) per day.
    pub spikes_per_day: f64,
    /// Mean spike duration.
    pub mean_spike_duration: SimDuration,
}

/// Finds every excursion of the price strictly above `level` within
/// `[from, to]`.
pub fn find_spikes(trace: &PriceTrace, level: f64, from: SimTime, to: SimTime) -> Vec<Spike> {
    assert!(to > from, "analysis window must be non-empty");
    let mut spikes = Vec::new();
    let mut current: Option<Spike> = None;
    let mut t = from;
    let mut price = trace.price_at(from);
    loop {
        let seg_end = match trace.next_change_after(t) {
            Some((ct, _)) if ct < to => ct,
            _ => to,
        };
        if price > level {
            match current.as_mut() {
                Some(s) => {
                    s.end = seg_end;
                    s.peak = s.peak.max(price);
                }
                None => {
                    current = Some(Spike {
                        start: t,
                        end: seg_end,
                        peak: price,
                    });
                }
            }
        } else if let Some(s) = current.take() {
            spikes.push(s);
        }
        if seg_end == to {
            break;
        }
        t = seg_end;
        price = trace.price_at(seg_end);
    }
    if let Some(s) = current {
        spikes.push(s);
    }
    spikes
}

/// Computes summary statistics of `trace` over `[from, to]` with
/// `reference` as the spike level (typically the on-demand price).
pub fn market_stats(trace: &PriceTrace, reference: f64, from: SimTime, to: SimTime) -> MarketStats {
    assert!(to > from, "analysis window must be non-empty");
    let spikes = find_spikes(trace, reference, from, to);
    let days = (to - from).as_hours_f64() / 24.0;
    let mean_spike_duration = if spikes.is_empty() {
        SimDuration::ZERO
    } else {
        let total_ms: u64 = spikes.iter().map(|s| s.duration().as_millis()).sum();
        SimDuration::from_millis(total_ms / spikes.len() as u64)
    };

    // Min/max over change points plus the window edges.
    let mut min_price = trace.price_at(from);
    let mut max_price = min_price;
    for (pt, price) in trace.points() {
        if *pt >= from && *pt <= to {
            min_price = min_price.min(*price);
            max_price = max_price.max(*price);
        }
    }

    MarketStats {
        mean_price: trace.mean_price(from, to),
        min_price,
        max_price,
        fraction_above_ref: trace.fraction_above(reference, from, to),
        spikes_per_day: spikes.len() as f64 / days.max(1e-9),
        mean_spike_duration,
    }
}

/// Ranks markets by time-weighted mean price per core over a window —
/// the first-order signal for where transient capacity is cheapest.
pub fn rank_markets_by_core_price(
    markets: &[(crate::instance::MarketKey, &PriceTrace)],
    from: SimTime,
    to: SimTime,
) -> Vec<(crate::instance::MarketKey, f64)> {
    let mut out: Vec<(crate::instance::MarketKey, f64)> = markets
        .iter()
        .map(|(key, trace)| {
            let per_core = trace.mean_price(from, to) / f64::from(key.instance_type().vcpus);
            (*key, per_core)
        })
        .collect();
    // Invariant: mean_price integrates finite trace points over a
    // positive window and vcpus ≥ 1, so per-core prices are never NaN.
    #[allow(clippy::expect_used)]
    out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite prices"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{MarketModel, TraceGenerator};
    use crate::instance::{catalog, MarketKey, Zone};

    fn scripted() -> PriceTrace {
        PriceTrace::from_points(vec![
            (SimTime::EPOCH, 0.05),
            (SimTime::from_hours(1), 0.50), // Spike 1: 1h-2h.
            (SimTime::from_hours(2), 0.05),
            (SimTime::from_hours(5), 0.80), // Spike 2: 5h-5.5h.
            (SimTime::EPOCH + SimDuration::from_mins(330), 0.05),
        ])
        .expect("valid")
    }

    #[test]
    fn spikes_are_detected_with_bounds_and_peaks() {
        let spikes = find_spikes(&scripted(), 0.2, SimTime::EPOCH, SimTime::from_hours(10));
        assert_eq!(spikes.len(), 2);
        assert_eq!(spikes[0].start, SimTime::from_hours(1));
        assert_eq!(spikes[0].end, SimTime::from_hours(2));
        assert_eq!(spikes[0].peak, 0.50);
        assert_eq!(spikes[1].duration(), SimDuration::from_mins(30));
        assert_eq!(spikes[1].peak, 0.80);
    }

    #[test]
    fn spike_open_at_window_end_is_reported() {
        let trace =
            PriceTrace::from_points(vec![(SimTime::EPOCH, 0.05), (SimTime::from_hours(1), 0.9)])
                .expect("valid");
        let spikes = find_spikes(&trace, 0.2, SimTime::EPOCH, SimTime::from_hours(3));
        assert_eq!(spikes.len(), 1);
        assert_eq!(spikes[0].end, SimTime::from_hours(3));
    }

    #[test]
    fn stats_summarize_the_scripted_trace() {
        let s = market_stats(&scripted(), 0.2, SimTime::EPOCH, SimTime::from_hours(10));
        assert_eq!(s.min_price, 0.05);
        assert_eq!(s.max_price, 0.80);
        // 1.5 spike-hours over 10 hours.
        assert!((s.fraction_above_ref - 0.15).abs() < 1e-9);
        // 2 spikes over 10/24 days = 4.8/day.
        assert!((s.spikes_per_day - 4.8).abs() < 1e-9);
        assert_eq!(s.mean_spike_duration, SimDuration::from_mins(45));
    }

    #[test]
    fn generated_traces_match_their_model_statistics() {
        let model = MarketModel::default();
        let gen = TraceGenerator::new(31, model.clone());
        let key = MarketKey::new(catalog::c4_xlarge(), Zone(0));
        let horizon = SimDuration::from_hours(24 * 30);
        let trace = gen.generate(key, horizon);
        let od = key.instance_type().on_demand_price;
        let s = market_stats(&trace, od, SimTime::EPOCH, SimTime::EPOCH + horizon);
        // The generator draws spikes at `spikes_per_day`, but only those
        // whose peak clears the on-demand level count here.
        assert!(
            s.spikes_per_day > model.spikes_per_day * 0.5
                && s.spikes_per_day < model.spikes_per_day * 1.5,
            "spike rate {} vs model {}",
            s.spikes_per_day,
            model.spikes_per_day
        );
        assert!(s.mean_price < od * 0.8);
        assert!(s.min_price > 0.0);
    }

    #[test]
    fn ranking_orders_by_per_core_price() {
        let cheap = PriceTrace::constant(0.04); // c4.xlarge: 0.01/core.
        let pricey = PriceTrace::constant(0.12); // c4.2xlarge: 0.015/core.
        let a = MarketKey::new(catalog::c4_xlarge(), Zone(0));
        let b = MarketKey::new(catalog::c4_2xlarge(), Zone(0));
        let ranked = rank_markets_by_core_price(
            &[(b, &pricey), (a, &cheap)],
            SimTime::EPOCH,
            SimTime::from_hours(1),
        );
        assert_eq!(ranked[0].0, a);
        assert!((ranked[0].1 - 0.01).abs() < 1e-9);
        assert!((ranked[1].1 - 0.015).abs() < 1e-9);
    }
}
