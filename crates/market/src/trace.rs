//! Spot-price traces as step functions over simulated time.
//!
//! A [`PriceTrace`] records every price change for one market; prices are
//! constant between changes (exactly how AWS publishes spot price
//! history). [`TraceSet`] bundles one trace per [`MarketKey`].

use proteus_simtime::{SimDuration, SimTime};

use crate::instance::MarketKey;

/// A step-function price history for a single market.
///
/// Invariant: change points are strictly increasing in time and the trace
/// always has a point at or before any queried instant (builders insert an
/// initial price at the epoch).
///
/// # Examples
///
/// ```
/// use proteus_market::PriceTrace;
/// use proteus_simtime::SimTime;
///
/// let trace = PriceTrace::from_points(vec![
///     (SimTime::EPOCH, 0.05),
///     (SimTime::from_hours(2), 0.50),
/// ]).unwrap();
/// assert_eq!(trace.price_at(SimTime::from_hours(1)), 0.05);
/// assert_eq!(trace.price_at(SimTime::from_hours(3)), 0.50);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTrace {
    /// (change time in ms, price) pairs, strictly increasing in time.
    points: Vec<(SimTime, f64)>,
}

impl PriceTrace {
    /// Builds a trace from change points.
    ///
    /// Returns `None` if `points` is empty, not strictly increasing in
    /// time, does not start at [`SimTime::EPOCH`], or contains a
    /// non-finite or non-positive price.
    pub fn from_points(points: Vec<(SimTime, f64)>) -> Option<Self> {
        if points.is_empty() || points[0].0 != SimTime::EPOCH {
            return None;
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return None;
            }
        }
        if points.iter().any(|(_, p)| !p.is_finite() || *p <= 0.0) {
            return None;
        }
        Some(PriceTrace { points })
    }

    /// The price in effect at instant `t`.
    pub fn price_at(&self, t: SimTime) -> f64 {
        self.points[self.index_at(t)].1
    }

    /// Index of the change point in effect at `t`: the last one at or
    /// before it (the first point sits at the epoch).
    fn index_at(&self, t: SimTime) -> usize {
        self.points
            .partition_point(|(pt, _)| *pt <= t)
            .saturating_sub(1)
    }

    /// The index of the change point in effect at `t` (the last one at
    /// or before it), searched forward from point `from`, which must be
    /// at or before `t`. One compare while the price has not changed
    /// since `from`, two when it changed once; past that, windows of
    /// doubling width are skipped until one ends after `t`, and a binary
    /// search runs inside that window. A walk that moves forward by a few
    /// points at a time pays a few compares, not a search of the whole
    /// rest of the trace. Past `GALLOP_POINTS` points the jump is a long
    /// one (a job's first multi-day move), and the binary search takes
    /// all the rest at once: doubling on would cost twice its probes.
    #[inline]
    pub fn seek(&self, from: usize, t: SimTime) -> usize {
        match &self.points[from + 1..] {
            [(next, _), ..] if *next > t => from,
            [_, (after, _), ..] if *after > t => from + 1,
            _ => self.gallop(from, t),
        }
    }

    /// [`seek`](Self::seek) past its two one-compare cases: out of line,
    /// so the common cases inline into a caller's loop.
    #[inline(never)]
    fn gallop(&self, from: usize, t: SimTime) -> usize {
        let rest = &self.points[from + 1..];
        // Every point of `rest[..lo]` is at or before `t`.
        let mut lo = rest.len().min(2);
        let mut width = 2;
        loop {
            let hi = if lo < GALLOP_POINTS {
                (lo + width).min(rest.len())
            } else {
                rest.len()
            };
            if hi == rest.len() || rest[hi - 1].0 > t {
                let window = &rest[lo..hi];
                return from + lo + window.partition_point(|(pt, _)| *pt <= t);
            }
            lo = hi;
            width *= 2;
        }
    }

    /// The first instant in `(after, horizon]` at which the price strictly
    /// exceeds `bid`; `None` if the price stays at or below `bid`. If the
    /// price already exceeds `bid` at `after`, returns `after`. Point
    /// `from` is the one in effect at `after` (what [`seek`](Self::seek)
    /// returns for it).
    pub fn crossing_from(
        &self,
        from: usize,
        bid: f64,
        after: SimTime,
        horizon: SimTime,
    ) -> Option<SimTime> {
        if self.points[from].1 > bid {
            return Some(after);
        }
        self.points[from + 1..]
            .iter()
            .take_while(|(ct, _)| *ct <= horizon)
            .find(|(_, price)| *price > bid)
            .map(|(ct, _)| *ct)
    }

    /// All change points (including the initial price at the epoch).
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Samples the trace every `step` over `[from, to]` — convenient for
    /// plotting (Fig. 3) and for the β-estimation simulations.
    pub fn sample(&self, from: SimTime, to: SimTime, step: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "sample step must be positive");
        let mut out = Vec::new();
        let mut t = from;
        while t <= to {
            out.push((t, self.price_at(t)));
            t += step;
        }
        out
    }

    /// The time-weighted mean price over `[from, to]`.
    pub fn mean_price(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to > from, "mean_price needs a non-empty interval");
        let mut acc = 0.0f64;
        let mut t = from;
        let (mut price, changes) = self.segments(from, to);
        for &(ct, next_price) in changes {
            acc += price * (ct - t).as_hours_f64();
            t = ct;
            price = next_price;
        }
        acc += price * (to - t).as_hours_f64();
        acc / (to - from).as_hours_f64()
    }

    /// Fraction of `[from, to]` during which the price exceeds `level`.
    pub fn fraction_above(&self, level: f64, from: SimTime, to: SimTime) -> f64 {
        assert!(to > from, "fraction_above needs a non-empty interval");
        let mut above = SimDuration::ZERO;
        let mut t = from;
        let (mut price, changes) = self.segments(from, to);
        for &(ct, next_price) in changes {
            if price > level {
                above += ct - t;
            }
            t = ct;
            price = next_price;
        }
        if price > level {
            above += to - t;
        }
        above.as_hours_f64() / (to - from).as_hours_f64()
    }

    /// The price in effect at `from` and the changes strictly inside
    /// `(from, to)`: two searches, not one per change.
    fn segments(&self, from: SimTime, to: SimTime) -> (f64, &[(SimTime, f64)]) {
        let i = self.index_at(from);
        let rest = &self.points[i + 1..];
        (
            self.points[i].1,
            &rest[..rest.partition_point(|(ct, _)| *ct < to)],
        )
    }
}

/// How far past its start [`PriceTrace::seek`] searches in doubling
/// windows before it searches the rest of the trace at once.
const GALLOP_POINTS: usize = 32;

/// One price trace per market.
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    /// Sorted by market, one entry per market: a market's position is
    /// its slot in a `PriceCursor`.
    traces: Vec<(MarketKey, PriceTrace)>,
}

impl TraceSet {
    /// An empty trace set.
    pub fn new() -> Self {
        TraceSet::default()
    }

    /// Registers (or replaces) the trace for `key`.
    pub fn insert(&mut self, key: MarketKey, trace: PriceTrace) {
        match self.slot(&key) {
            Ok(i) => self.traces[i].1 = trace,
            Err(i) => self.traces.insert(i, (key, trace)),
        }
    }

    /// The trace for `key`, if registered.
    pub fn get(&self, key: &MarketKey) -> Option<&PriceTrace> {
        self.slot(key).ok().map(|i| &self.traces[i].1)
    }

    /// `key`'s position in market order, or where it would go.
    pub(crate) fn slot(&self, key: &MarketKey) -> Result<usize, usize> {
        self.traces.binary_search_by(|(k, _)| k.cmp(key))
    }
}

/// Every market's price at one instant, with the trace point each came
/// from, moved forward with that instant: a caller stepping time in
/// small increments reads prices and scans for crossings without
/// searching a trace.
///
/// Slot `i` is market `i` of the [`TraceSet`] the cursor was built
/// over, which every call must pass unchanged.
#[derive(Debug, Clone)]
pub(crate) struct PriceCursor {
    at: SimTime,
    /// Each market with its price at `at`, in market order.
    prices: Vec<(MarketKey, f64)>,
    /// Per slot, the index of the trace point `prices` holds.
    points: Vec<usize>,
    /// Per slot, when its price next changes: the time of the point
    /// after `points[slot]`, or [`NEVER`] past the trace's last one.
    /// Contiguous, so a step that moves no market reads one line.
    next: Vec<SimTime>,
}

/// A "next change" that never comes: the slot is on its trace's last
/// point.
const NEVER: SimTime = SimTime::from_millis(u64::MAX);

impl PriceCursor {
    /// A cursor at the epoch.
    pub(crate) fn new(set: &TraceSet) -> Self {
        let traces = || set.traces.iter().map(|(k, t)| (k, &t.points));
        PriceCursor {
            at: SimTime::EPOCH,
            prices: traces().map(|(k, points)| (*k, points[0].1)).collect(),
            points: vec![0; set.traces.len()],
            next: traces().map(|(_, points)| next_change(points, 0)).collect(),
        }
    }

    /// Moves every market forward to `t` (not earlier than the cursor).
    /// Only a slot whose next change is due at `t` seeks its trace; any
    /// other costs one compare.
    pub(crate) fn advance(&mut self, set: &TraceSet, t: SimTime) {
        debug_assert!(t >= self.at, "a price cursor only moves forward");
        self.at = t;
        for (slot, next) in self.next.iter_mut().enumerate() {
            if *next > t {
                continue;
            }
            let trace = &set.traces[slot].1;
            let point = trace.seek(self.points[slot], t);
            self.points[slot] = point;
            self.prices[slot].1 = trace.points[point].1;
            *next = next_change(&trace.points, point);
        }
    }

    /// Every market's price at the cursor, in market order.
    pub(crate) fn prices(&self) -> &[(MarketKey, f64)] {
        &self.prices
    }

    /// [`PriceTrace::crossing_from`] of market `slot` from the cursor's
    /// instant.
    pub(crate) fn first_crossing_above(
        &self,
        set: &TraceSet,
        slot: usize,
        bid: f64,
        horizon: SimTime,
    ) -> Option<SimTime> {
        set.traces[slot]
            .1
            .crossing_from(self.points[slot], bid, self.at, horizon)
    }
}

/// When the price of `points` next changes after point `point`.
fn next_change(points: &[(SimTime, f64)], point: usize) -> SimTime {
    points.get(point + 1).map_or(NEVER, |&(t, _)| t)
}

// Borrow-or-own conversions so consumers (notably `CloudProvider`) can
// accept either an owned set or a shared reference without cloning the
// underlying traces.
impl<'a> From<TraceSet> for std::borrow::Cow<'a, TraceSet> {
    fn from(set: TraceSet) -> Self {
        std::borrow::Cow::Owned(set)
    }
}

impl<'a> From<&'a TraceSet> for std::borrow::Cow<'a, TraceSet> {
    fn from(set: &'a TraceSet) -> Self {
        std::borrow::Cow::Borrowed(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{catalog, Zone};

    fn stepped() -> PriceTrace {
        PriceTrace::from_points(vec![
            (SimTime::EPOCH, 0.05),
            (SimTime::from_hours(1), 0.10),
            (SimTime::from_hours(2), 0.50),
            (SimTime::from_hours(3), 0.05),
        ])
        .expect("valid trace")
    }

    #[test]
    fn rejects_malformed_traces() {
        assert!(PriceTrace::from_points(vec![]).is_none());
        // Must start at epoch.
        assert!(PriceTrace::from_points(vec![(SimTime::from_hours(1), 0.1)]).is_none());
        // Strictly increasing.
        assert!(
            PriceTrace::from_points(vec![(SimTime::EPOCH, 0.1), (SimTime::EPOCH, 0.2),]).is_none()
        );
        // Positive finite prices.
        assert!(PriceTrace::from_points(vec![(SimTime::EPOCH, 0.0)]).is_none());
        assert!(PriceTrace::from_points(vec![(SimTime::EPOCH, f64::NAN)]).is_none());
    }

    #[test]
    fn price_at_is_right_continuous_step() {
        let t = stepped();
        assert_eq!(t.price_at(SimTime::EPOCH), 0.05);
        assert_eq!(t.price_at(SimTime::from_millis(1)), 0.05);
        assert_eq!(t.price_at(SimTime::from_hours(1)), 0.10);
        assert_eq!(t.price_at(SimTime::from_hours(4)), 0.05);
    }

    #[test]
    fn first_crossing_detects_spike() {
        let t = stepped();
        // Bid 0.2: crossed when price jumps to 0.5 at hour 2.
        assert_eq!(
            t.crossing_from(
                t.seek(0, SimTime::EPOCH),
                0.2,
                SimTime::EPOCH,
                SimTime::from_hours(10)
            ),
            Some(SimTime::from_hours(2))
        );
        // Bid 1.0: never crossed.
        assert_eq!(
            t.crossing_from(
                t.seek(0, SimTime::EPOCH),
                1.0,
                SimTime::EPOCH,
                SimTime::from_hours(10)
            ),
            None
        );
        // Already above bid at query time.
        assert_eq!(
            t.crossing_from(
                t.seek(0, SimTime::from_hours(2)),
                0.2,
                SimTime::from_hours(2),
                SimTime::from_hours(10)
            ),
            Some(SimTime::from_hours(2))
        );
        // Horizon cuts off the crossing.
        assert_eq!(
            t.crossing_from(
                t.seek(0, SimTime::EPOCH),
                0.2,
                SimTime::EPOCH,
                SimTime::from_hours(1)
            ),
            None
        );
    }

    #[test]
    fn mean_price_weights_by_time() {
        let t = stepped();
        // Hours 0-2: 0.05 then 0.10 → mean 0.075.
        let m = t.mean_price(SimTime::EPOCH, SimTime::from_hours(2));
        assert!((m - 0.075).abs() < 1e-9);
    }

    #[test]
    fn fraction_above_measures_spike_width() {
        let t = stepped();
        let frac = t.fraction_above(0.2, SimTime::EPOCH, SimTime::from_hours(4));
        assert!((frac - 0.25).abs() < 1e-9);
    }

    #[test]
    fn trace_set_round_trip() {
        let mut set = TraceSet::new();
        let key = MarketKey::new(catalog::c4_xlarge(), Zone(0));
        assert!(set.get(&key).is_none());
        set.insert(
            key,
            PriceTrace::from_points(vec![(SimTime::EPOCH, 0.05)]).unwrap(),
        );
        assert_eq!(set.traces.len(), 1);
        assert_eq!(set.get(&key).unwrap().price_at(SimTime::EPOCH), 0.05);
        assert!(set
            .get(&MarketKey::new(catalog::c4_xlarge(), Zone(1)))
            .is_none());
    }

    /// A trace whose change points sit `gaps` minutes apart, each price
    /// distinct.
    fn with_gaps(gaps: &[u64]) -> PriceTrace {
        let mut t = SimTime::EPOCH;
        let mut points = vec![(t, 0.05)];
        for (i, gap) in gaps.iter().enumerate() {
            t += SimDuration::from_mins(*gap);
            points.push((t, 0.06 + 0.01 * i as f64));
        }
        PriceTrace::from_points(points).expect("strictly increasing")
    }

    /// From every point, to every instant at or after it (each change
    /// point, the millisecond before it, and past the end), `seek` lands
    /// where a fresh search does: no point left, one point left, a jump
    /// of exactly two points and every longer jump, in windows of every
    /// width the search doubles through and past them.
    #[test]
    fn seek_from_every_point_is_index_at() {
        let gaps: Vec<u64> = (0..90).map(|i| 1 + (i * 7) % 11).collect();
        let trace = with_gaps(&gaps);
        let points = trace.points();
        let mut instants: Vec<SimTime> = points.iter().map(|(t, _)| *t).collect();
        instants.extend(
            points[1..]
                .iter()
                .map(|(t, _)| *t - SimDuration::from_millis(1)),
        );
        instants.push(points[points.len() - 1].0 + SimDuration::from_hours(24 * 3));
        for (from, (at, _)) in points.iter().enumerate() {
            for &t in instants.iter().filter(|&&t| t >= *at) {
                assert_eq!(
                    trace.seek(from, t),
                    trace.index_at(t),
                    "from {from} to {t:?}"
                );
            }
        }
    }

    proptest::proptest! {
        /// Walking a random trace through random non-decreasing instants
        /// (repeats, small steps and multi-day jumps), each `seek` from
        /// the last result is `index_at`.
        #[test]
        fn seek_walk_is_index_at(
            gaps in proptest::collection::vec(1u64..120, 0..200),
            steps in proptest::collection::vec(0u64..5_000, 1..48),
        ) {
            let trace = with_gaps(&gaps);
            let (mut t, mut at) = (SimTime::EPOCH, 0);
            for step in steps {
                t += SimDuration::from_mins(step);
                at = trace.seek(at, t);
                proptest::prop_assert_eq!(at, trace.index_at(t));
            }
        }
    }

    proptest::proptest! {
        /// A cursor over several random traces, walked forward by random
        /// moves (small steps, multi-day jumps, and jumps landing exactly
        /// on some slot's next change point), holds every slot's
        /// `price_at` and scans each slot's crossings as a fresh search
        /// does.
        #[test]
        fn cursor_walk_is_price_at(
            gaps in proptest::collection::vec(proptest::collection::vec(1u64..180, 0..120), 1..6),
            moves in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..64),
        ) {
            let mut set = TraceSet::new();
            for (i, gaps) in gaps.iter().enumerate() {
                set.insert(MarketKey::new(i, Zone(0)), with_gaps(gaps));
            }
            let traces: Vec<&PriceTrace> = set.traces.iter().map(|(_, t)| t).collect();
            let mut cursor = PriceCursor::new(&set);
            let mut t = SimTime::EPOCH;
            for raw in moves {
                t = match raw % 4 {
                    0 => t + SimDuration::from_millis(raw >> 2 & 0xfffff),
                    1 => t + SimDuration::from_hours(24 + (raw >> 2) % 72),
                    // The next change of slot `raw >> 2`, if it has one.
                    _ => {
                        let points = traces[(raw >> 2) as usize % traces.len()].points();
                        points.iter().map(|&(ct, _)| ct).find(|&ct| ct > t).unwrap_or(t)
                    }
                };
                cursor.advance(&set, t);
                for (slot, trace) in traces.iter().enumerate() {
                    proptest::prop_assert_eq!(cursor.prices()[slot].1, trace.price_at(t));
                    // Each slot knows its next change, so only a due one
                    // is sought at the next move.
                    let next = trace.points().iter().map(|&(ct, _)| ct).find(|&ct| ct > t);
                    proptest::prop_assert_eq!(cursor.next[slot], next.unwrap_or(NEVER));
                    let bid = 0.055 + (raw >> 8) as f64 % 40.0 * 0.01;
                    let horizon = t + SimDuration::from_hours(raw >> 20 & 7);
                    proptest::prop_assert_eq!(
                        cursor.first_crossing_above(&set, slot, bid, horizon),
                        trace.crossing_from(trace.seek(0, t), bid, t, horizon)
                    );
                }
            }
        }
    }

    #[test]
    fn sample_covers_inclusive_range() {
        let t = stepped();
        let samples = t.sample(
            SimTime::EPOCH,
            SimTime::from_hours(2),
            SimDuration::from_hours(1),
        );
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[2], (SimTime::from_hours(2), 0.50));
    }
}
