//! The metrics registry: counters, sim-time-weighted gauges and
//! histograms, and span timings — all keyed to [`SimTime`], never the
//! wall clock, and all iterated in `BTreeMap` order so snapshots are
//! deterministic.

use std::collections::BTreeMap;

use proteus_simtime::{SimDuration, SimTime};

/// A histogram whose weight axis is *sim time*: each observed value
/// accumulates the duration it was in effect, so "how long was the
/// session degraded" is `time_at(1.0)` on a 0/1 gauge and matches the
/// session report's own accounting to the millisecond.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeWeightedHist {
    /// Accumulated duration per exact value (`f64::to_bits` keyed, so
    /// ordering and equality are bit-precise and deterministic).
    weights: BTreeMap<u64, SimDuration>,
}

impl TimeWeightedHist {
    /// Adds `duration` of sim time spent at `value`.
    pub fn add(&mut self, value: f64, duration: SimDuration) {
        if duration.is_zero() {
            return;
        }
        *self.weights.entry(value.to_bits()).or_default() += duration;
    }

    /// Total sim time spent at exactly `value`.
    pub fn time_at(&self, value: f64) -> SimDuration {
        self.weights
            .get(&value.to_bits())
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Total accumulated sim time across all values.
    pub fn total(&self) -> SimDuration {
        self.weights
            .values()
            .fold(SimDuration::ZERO, |acc, d| acc + *d)
    }

    /// Distinct values observed, in ascending bit order.
    pub fn values(&self) -> impl Iterator<Item = (f64, SimDuration)> + '_ {
        self.weights
            .iter()
            .map(|(bits, d)| (f64::from_bits(*bits), *d))
    }
}

/// A gauge that remembers *when* it was last set and folds elapsed sim
/// time into a [`TimeWeightedHist`] on every transition.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TimeWeightedGauge {
    /// Last set point: (time, value).
    current: Option<(SimTime, f64)>,
    pub(crate) hist: TimeWeightedHist,
}

impl TimeWeightedGauge {
    /// Sets the gauge to `value` at `t`, crediting the previous value
    /// with the sim time since it was set. Out-of-order sets credit
    /// zero time (saturating), never panic.
    pub(crate) fn set(&mut self, t: SimTime, value: f64) {
        if let Some((t0, v0)) = self.current {
            self.hist.add(v0, t.since(t0));
        }
        self.current = Some((t, value));
    }

    /// Folds time up to `t` into the histogram without changing the
    /// current value — call before reading when a run ends.
    pub(crate) fn close(&mut self, t: SimTime) {
        if let Some((t0, v0)) = self.current {
            self.hist.add(v0, t.since(t0));
            self.current = Some((t, v0));
        }
    }

    pub(crate) fn value(&self) -> Option<f64> {
        self.current.map(|(_, v)| v)
    }
}

/// Aggregate timing for a named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total sim time across completed spans.
    pub total: SimDuration,
    /// Longest single span.
    pub max: SimDuration,
}

/// The registry proper. Names are `&'static str` — metric names are
/// code, not data.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsRegistry {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) gauges: BTreeMap<&'static str, TimeWeightedGauge>,
    pub(crate) hists: BTreeMap<&'static str, TimeWeightedHist>,
    pub(crate) spans: BTreeMap<&'static str, SpanStats>,
}

impl MetricsRegistry {
    pub(crate) fn counter_add(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    pub(crate) fn gauge_set(&mut self, name: &'static str, t: SimTime, value: f64) {
        self.gauges.entry(name).or_default().set(t, value);
    }

    pub(crate) fn hist_add(&mut self, name: &'static str, value: f64, duration: SimDuration) {
        self.hists.entry(name).or_default().add(value, duration);
    }

    pub(crate) fn span(&mut self, name: &'static str, start: SimTime, end: SimTime) {
        let s = self.spans.entry(name).or_default();
        let d = end.since(start);
        s.count += 1;
        s.total += d;
        s.max = s.max.max(d);
    }

    pub(crate) fn close_gauges(&mut self, t: SimTime) {
        for g in self.gauges.values_mut() {
            g.close(t);
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, g)| (*k, (g.value(), g.hist.clone())))
                .collect(),
            hists: self.hists.clone(),
            spans: self.spans.clone(),
        }
    }
}

/// An owned, queryable copy of the registry at one instant.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Per-gauge current value and time-at-value histogram.
    pub gauges: BTreeMap<&'static str, (Option<f64>, TimeWeightedHist)>,
    /// Free-standing sim-time-weighted histograms.
    pub hists: BTreeMap<&'static str, TimeWeightedHist>,
    /// Span timings by name.
    pub spans: BTreeMap<&'static str, SpanStats>,
}

impl MetricsSnapshot {
    /// Counter value, zero if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Time-at-value histogram of a gauge, empty if never set.
    pub fn gauge_hist(&self, name: &str) -> TimeWeightedHist {
        self.gauges
            .get(name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).and_then(|(v, _)| *v)
    }

    /// Span stats, zeroed if the span never completed.
    pub fn span(&self, name: &str) -> SpanStats {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn hist_accumulates_per_value() {
        let mut h = TimeWeightedHist::default();
        h.add(0.0, SimDuration::from_secs(10));
        h.add(1.0, SimDuration::from_secs(5));
        h.add(1.0, SimDuration::from_secs(7));
        h.add(2.5, SimDuration::ZERO); // zero weight is dropped
        assert_eq!(h.time_at(0.0), SimDuration::from_secs(10));
        assert_eq!(h.time_at(1.0), SimDuration::from_secs(12));
        assert_eq!(h.time_at(2.5), SimDuration::ZERO);
        assert_eq!(h.total(), SimDuration::from_secs(22));
    }

    #[test]
    fn gauge_credits_elapsed_time_to_previous_value() {
        let mut g = TimeWeightedGauge::default();
        g.set(t(0), 0.0);
        g.set(t(60_000), 1.0); // degraded at t=60s
        g.set(t(150_000), 0.0); // restored at t=150s
        g.close(t(200_000));
        assert_eq!(g.hist.time_at(1.0), SimDuration::from_secs(90));
        assert_eq!(g.hist.time_at(0.0), SimDuration::from_secs(110));
        assert_eq!(g.value(), Some(0.0));
    }

    #[test]
    fn gauge_close_is_idempotent_for_elapsed_time() {
        let mut g = TimeWeightedGauge::default();
        g.set(t(0), 2.0);
        g.close(t(10_000));
        g.close(t(10_000));
        assert_eq!(g.hist.time_at(2.0), SimDuration::from_secs(10));
    }

    #[test]
    fn gauge_out_of_order_set_saturates() {
        let mut g = TimeWeightedGauge::default();
        g.set(t(100_000), 1.0);
        g.set(t(50_000), 0.0); // earlier than last set: credits zero
        assert_eq!(g.hist.time_at(1.0), SimDuration::ZERO);
    }

    #[test]
    fn registry_snapshot_is_deterministic() {
        let mut r = MetricsRegistry::default();
        r.counter_add("b", 2);
        r.counter_add("a", 1);
        r.counter_add("b", 3);
        r.span("s", t(0), t(5_000));
        r.span("s", t(5_000), t(6_000));
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 1);
        assert_eq!(snap.counter("b"), 5);
        assert_eq!(snap.counter("missing"), 0);
        let s = snap.span("s");
        assert_eq!(s.count, 2);
        assert_eq!(s.total, SimDuration::from_secs(6));
        assert_eq!(s.max, SimDuration::from_secs(5));
        let keys: Vec<_> = snap.counters.keys().copied().collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
