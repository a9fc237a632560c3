//! Eviction-probability estimation from historical price traces.
//!
//! "Using the AWS spot market trace …, we ran simulations with a wide
//! range of bid deltas and recorded the probability of getting evicted
//! within the hour, β, and the median time to eviction" (Sec. 4.1).
//! [`BetaEstimator`] reproduces exactly that procedure against the
//! (synthetic or scripted) traces available in this workspace: for many
//! historical start instants it asks "had I bid `market price + delta`
//! here, would the price have crossed my bid within the hour, and when?".

use proteus_market::{MarketKey, PriceTrace};
use proteus_simtime::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// β and median time-to-eviction at one bid delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaPoint {
    /// Bid delta in dollars above the market price.
    pub delta: f64,
    /// Probability of eviction within one billing hour.
    pub beta: f64,
    /// Median time to eviction among evicted trials.
    pub median_tte: SimDuration,
}

/// The β curve for one market.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaTable {
    /// Points ordered by increasing delta.
    points: Vec<BetaPoint>,
    /// Per point, the hour row at its delta, resolved once: what a
    /// bid-delta sweep reads for an on-grid delta.
    rows: Vec<(f64, f64)>,
}

impl BetaTable {
    /// Builds a table from sample points (sorted by delta internally).
    ///
    /// Returns `None` if `points` is empty or a delta is not finite.
    pub fn new(mut points: Vec<BetaPoint>) -> Option<Self> {
        if points.is_empty() || points.iter().any(|p| !p.delta.is_finite()) {
            return None;
        }
        points.sort_by(|a, b| a.delta.total_cmp(&b.delta));
        let mut table = BetaTable {
            points,
            rows: Vec::new(),
        };
        table.rows = table
            .points
            .iter()
            .map(|p| table.interpolate_hour_row(p.delta))
            .collect();
        Some(table)
    }

    /// The hour row of each of `deltas` into the same place of `rows`:
    /// `(β, min(median time-to-eviction, 1 h) in hours)`, what Eqs. 1–2
    /// read for a holding with a whole billing hour ahead. A sampled
    /// delta reads the row resolved when the table was built (matched by
    /// value; duplicates resolve alike); any other delta is interpolated.
    /// Either way the bits are those of [`beta`](Self::beta) and
    /// [`median_tte`](Self::median_tte). The match walks the grid: an
    /// ascending list (every configured sweep) passes over it once, and
    /// a step back starts the walk over.
    pub(crate) fn hour_rows(&self, deltas: &[f64], rows: &mut [(f64, f64)]) {
        let pts = &self.points;
        let mut i = 0;
        for (&delta, row) in deltas.iter().zip(rows) {
            if pts.get(i).is_none_or(|p| p.delta > delta) {
                i = 0;
            }
            while pts.get(i).is_some_and(|p| p.delta < delta) {
                i += 1;
            }
            *row = match pts.get(i) {
                Some(p) if p.delta == delta => self.rows[i],
                _ => self.interpolate_hour_row(delta),
            };
        }
    }

    fn interpolate_hour_row(&self, delta: f64) -> (f64, f64) {
        let tte = self.median_tte(delta).min(HOUR);
        (self.beta(delta), tte.as_hours_f64())
    }

    /// β at an arbitrary delta (nearest-point lookup with linear
    /// interpolation between neighbours; clamped at the ends).
    pub fn beta(&self, delta: f64) -> f64 {
        self.interpolate(delta, |p| p.beta)
    }

    /// Median time-to-eviction at an arbitrary delta.
    pub fn median_tte(&self, delta: f64) -> SimDuration {
        let secs = self.interpolate(delta, |p| p.median_tte.as_secs_f64());
        SimDuration::from_secs_f64(secs)
    }

    /// The sampled points.
    pub fn points(&self) -> &[BetaPoint] {
        &self.points
    }

    fn interpolate(&self, delta: f64, f: impl Fn(&BetaPoint) -> f64) -> f64 {
        let pts = &self.points;
        if delta <= pts[0].delta {
            return f(&pts[0]);
        }
        if delta >= pts[pts.len() - 1].delta {
            return f(&pts[pts.len() - 1]);
        }
        for w in pts.windows(2) {
            if delta >= w[0].delta && delta <= w[1].delta {
                let t = (delta - w[0].delta) / (w[1].delta - w[0].delta).max(1e-12);
                return f(&w[0]) * (1.0 - t) + f(&w[1]) * t;
            }
        }
        f(&pts[pts.len() - 1])
    }
}

/// `(β, median time-to-eviction)` assumed for a market with no trained
/// table: a coin flip, half an hour in.
const UNTRAINED: (f64, SimDuration) = (0.5, SimDuration::from_mins(30));

/// One billing hour.
pub(crate) const HOUR: SimDuration = SimDuration::from_hours(1);

/// Builds β tables per market by replaying historical traces.
#[derive(Debug, Clone, Default)]
pub struct BetaEstimator {
    tables: BTreeMap<MarketKey, BetaTable>,
    /// The δ grid every trained table was built on, ascending, when they
    /// all share one: a sweep over exactly this list reads each table's
    /// `rows` as they stand.
    grid: Option<Vec<f64>>,
}

impl BetaEstimator {
    /// An estimator with no trained markets (β defaults apply).
    pub fn new() -> Self {
        BetaEstimator::default()
    }

    /// The candidate bid deltas the paper sweeps: `[$0.0001, $0.4]`.
    pub fn default_deltas() -> Vec<f64> {
        vec![0.0001, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4]
    }

    /// Trains the β table for `market` by simulating hour-long holdings
    /// started every `stride` across `[from, to]` of `trace`, one point
    /// per distinct delta.
    ///
    /// # Panics
    ///
    /// If `deltas` is empty or holds a delta that is not finite and
    /// positive, or if `stride` is zero.
    pub fn train(
        &mut self,
        market: MarketKey,
        trace: &PriceTrace,
        from: SimTime,
        to: SimTime,
        stride: SimDuration,
        deltas: &[f64],
    ) {
        assert!(!stride.is_zero(), "training stride must be positive");
        assert!(
            !deltas.is_empty() && deltas.iter().all(|d| d.is_finite() && *d > 0.0),
            "bid deltas must be finite and positive: {deltas:?}"
        );
        // In delta order, so the monotone pass below runs along the
        // curve, and each once: a duplicate would train an identical point.
        let mut deltas = deltas.to_vec();
        deltas.sort_by(f64::total_cmp);
        deltas.dedup();
        let mut points = Vec::with_capacity(deltas.len());
        for &delta in &deltas {
            let mut evictions = 0usize;
            let mut trials = 0usize;
            let mut ttes: Vec<SimDuration> = Vec::new();
            let mut t = from;
            // The trace point in effect at `t`, moved forward with it.
            let mut at = 0;
            while t + HOUR <= to {
                at = trace.seek(at, t);
                let bid = trace.points()[at].1 + delta;
                trials += 1;
                if let Some(cross) = trace.crossing_from(at, bid, t, t + HOUR) {
                    if cross > t {
                        evictions += 1;
                        ttes.push(cross - t);
                    } else {
                        // Crossing at the start means the bid was below
                        // market, which cannot happen at delta > 0; treat
                        // as an immediate eviction for robustness.
                        evictions += 1;
                        ttes.push(SimDuration::ZERO);
                    }
                }
                t += stride;
            }
            let beta = if trials == 0 {
                0.0
            } else {
                evictions as f64 / trials as f64
            };
            ttes.sort();
            let median_tte = if ttes.is_empty() {
                HOUR
            } else {
                ttes[ttes.len() / 2]
            };
            points.push(BetaPoint {
                delta,
                beta,
                median_tte,
            });
        }
        // Enforce monotonicity: higher bids can only lower β. Sampling
        // noise can produce tiny inversions; smooth them out.
        let mut run_min = f64::INFINITY;
        for p in &mut points {
            run_min = run_min.min(p.beta);
            p.beta = run_min;
        }
        // `points` mirrors the non-empty, finite delta grid asserted
        // above, so the table constructor cannot refuse it.
        #[allow(clippy::expect_used)]
        self.tables
            .insert(market, BetaTable::new(points).expect("non-empty deltas"));
        let on = |t: &BetaTable| t.points.iter().map(|p| p.delta).eq(deltas.iter().copied());
        self.grid = self.tables.values().all(on).then_some(deltas);
    }

    /// Whether `deltas` is the grid every trained table was built on,
    /// in its order: then [`sweep_rows`](Self::sweep_rows) may read a
    /// table's rows as they stand. A trained estimator answers this in
    /// O(δ), whatever its market count.
    pub(crate) fn is_grid(&self, deltas: &[f64]) -> bool {
        self.grid.as_deref() == Some(deltas)
    }

    /// `(β, median time-to-eviction)` at `delta` in an already resolved
    /// [`table`](Self::table) — for `None`, the untrained defaults: a
    /// conservative β of 0.5 and half an hour — so a caller sweeping
    /// many deltas of one market pays the market lookup once.
    pub fn point(table: Option<&BetaTable>, delta: f64) -> (f64, SimDuration) {
        table.map_or(UNTRAINED, |t| (t.beta(delta), t.median_tte(delta)))
    }

    /// [`BetaTable::hour_rows`] in an already resolved table, with the
    /// untrained defaults for `None`.
    pub(crate) fn hour_rows(table: Option<&BetaTable>, deltas: &[f64], rows: &mut [(f64, f64)]) {
        match table {
            Some(t) => t.hour_rows(deltas, rows),
            None => rows[..deltas.len()].fill((UNTRAINED.0, UNTRAINED.1.min(HOUR).as_hours_f64())),
        }
    }

    /// The hour rows of `deltas` in `table`, the same bits as
    /// [`hour_rows`](Self::hour_rows). `grid_at` is where `deltas`
    /// starts in the estimator's grid when the sweep's δ list
    /// [`is_grid`](Self::is_grid): a trained table then lends its own
    /// rows, with no walk. Anything else is written into `scratch`.
    pub(crate) fn sweep_rows<'r>(
        table: Option<&'r BetaTable>,
        grid_at: Option<usize>,
        deltas: &[f64],
        scratch: &'r mut [(f64, f64)],
    ) -> &'r [(f64, f64)] {
        match (table, grid_at) {
            (Some(t), Some(at)) => &t.rows[at..at + deltas.len()],
            _ => {
                Self::hour_rows(table, deltas, scratch);
                &scratch[..deltas.len()]
            }
        }
    }

    /// The trained table for `market`, if any.
    pub fn table(&self, market: MarketKey) -> Option<&BetaTable> {
        self.tables.get(&market)
    }
}

// Borrow-or-own conversions so consumers (notably `BidBrain`) can accept
// either an owned estimator or a shared reference without cloning the
// trained tables.
impl<'a> From<BetaEstimator> for std::borrow::Cow<'a, BetaEstimator> {
    fn from(beta: BetaEstimator) -> Self {
        std::borrow::Cow::Owned(beta)
    }
}

impl<'a> From<&'a BetaEstimator> for std::borrow::Cow<'a, BetaEstimator> {
    fn from(beta: &'a BetaEstimator) -> Self {
        std::borrow::Cow::Borrowed(beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_market::{catalog, Zone};
    use proteus_market::{MarketModel, TraceGenerator};

    fn key() -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(0))
    }

    fn trained() -> BetaEstimator {
        let gen = TraceGenerator::new(21, MarketModel::default());
        let horizon = SimDuration::from_hours(24 * 30);
        let trace = gen.generate(key(), horizon);
        let mut est = BetaEstimator::new();
        est.train(
            key(),
            &trace,
            SimTime::EPOCH,
            SimTime::EPOCH + horizon,
            SimDuration::from_mins(30),
            &BetaEstimator::default_deltas(),
        );
        est
    }

    #[test]
    fn beta_decreases_with_bid_delta() {
        let est = trained();
        let lo = BetaEstimator::point(est.table(key()), 0.0001).0;
        let hi = BetaEstimator::point(est.table(key()), 0.4).0;
        assert!(lo >= hi, "higher bids evict less: β({lo}) vs β({hi})");
        assert!(lo > 0.0, "tiny deltas must see evictions in a spiky market");
        assert!(hi < 0.5, "bidding $0.40 over market should usually survive");
    }

    #[test]
    fn interpolation_is_continuous_and_clamped() {
        let table = BetaTable::new(vec![
            BetaPoint {
                delta: 0.01,
                beta: 0.8,
                median_tte: SimDuration::from_mins(10),
            },
            BetaPoint {
                delta: 0.10,
                beta: 0.2,
                median_tte: SimDuration::from_mins(40),
            },
        ])
        .unwrap();
        assert_eq!(table.beta(0.001), 0.8); // Clamp low.
        assert_eq!(table.beta(0.5), 0.2); // Clamp high.
        let mid = table.beta(0.055);
        assert!((mid - 0.5).abs() < 1e-9, "midpoint interpolates: {mid}");
        assert_eq!(table.median_tte(0.055), SimDuration::from_mins(25));
    }

    /// A row is the interpolation it stands for, bit for bit: at the
    /// first, middle and last sampled deltas, in a one-point table
    /// (whose median time-to-eviction is past the hour, so capped), and
    /// where two points share a delta; off the grid it interpolates.
    /// A walk over an unsorted list with a repeat matches by value.
    #[test]
    fn hour_rows_are_the_interpolation() {
        let pt = |delta, beta, mins| BetaPoint {
            delta,
            beta,
            median_tte: SimDuration::from_mins(mins),
        };
        let interpolated = |t: &BetaTable, d: f64| {
            let tte = t.median_tte(d).min(HOUR).as_hours_f64();
            (t.beta(d).to_bits(), tte.to_bits())
        };
        let bits = |(beta, tte): (f64, f64)| (beta.to_bits(), tte.to_bits());
        let tables = [
            vec![pt(0.01, 0.8, 10), pt(0.05, 0.5, 25), pt(0.10, 0.2, 40)],
            vec![pt(0.02, 0.3, 90)],
            vec![pt(0.01, 0.8, 10), pt(0.01, 0.6, 20), pt(0.10, 0.2, 40)],
        ];
        for points in &tables {
            let table = BetaTable::new(points.clone()).expect("non-empty");
            for d in points.iter().map(|p| p.delta).chain([0.001, 0.03, 0.5]) {
                let mut row = [(0.0, 0.0)];
                table.hour_rows(&[d], &mut row);
                assert_eq!(bits(row[0]), interpolated(&table, d), "δ {d}");
            }
        }
        let table = BetaTable::new(tables[0].clone()).expect("non-empty");
        let deltas = [0.10, 0.01, 0.10, 0.03, 0.05, 0.001];
        let mut rows = [(0.0, 0.0); 6];
        table.hour_rows(&deltas, &mut rows);
        for (&d, &row) in deltas.iter().zip(&rows) {
            assert_eq!(bits(row), interpolated(&table, d), "δ {d}");
        }
    }

    #[test]
    #[should_panic(expected = "bid deltas must be finite and positive")]
    fn training_rejects_a_non_finite_delta() {
        BetaEstimator::new().train(
            key(),
            &PriceTrace::from_points(vec![(SimTime::EPOCH, 0.05)]).expect("flat trace"),
            SimTime::EPOCH,
            SimTime::from_hours(10),
            SimDuration::from_mins(30),
            &[0.01, f64::NAN],
        );
    }

    /// A repeated delta trains the one point it names, in any order.
    #[test]
    fn duplicate_deltas_train_one_point() {
        let horizon = SimDuration::from_hours(72);
        let trace = TraceGenerator::new(5, MarketModel::volatile()).generate(key(), horizon);
        let train = |deltas: &[f64]| {
            let mut est = BetaEstimator::new();
            est.train(
                key(),
                &trace,
                SimTime::EPOCH,
                SimTime::EPOCH + horizon,
                SimDuration::from_mins(30),
                deltas,
            );
            est
        };
        let once = train(&[0.001, 0.05]);
        let twice = train(&[0.05, 0.001, 0.05, 0.001]);
        assert_eq!(twice.table(key()), once.table(key()));
        assert_eq!(twice.table(key()).map(|t| t.points().len()), Some(2));
    }

    /// Training by a walk that steps one trace point forward with time
    /// trains, bit for bit, the table that a search for the price and
    /// the crossing at every stride trains: that per-stride loop is the
    /// oracle here, on calm, default and volatile traces, with strides
    /// shorter and longer than the gaps between price changes, from an
    /// instant that is no change point.
    #[test]
    fn forward_walk_trains_the_per_stride_table() {
        let horizon = SimDuration::from_hours(24 * 6);
        let deltas = BetaEstimator::default_deltas();
        let models = [
            (3, MarketModel::volatile(), 7),
            (8, MarketModel::default(), 30),
            (13, MarketModel::calm(), 95),
        ];
        for (seed, model, stride_mins) in models {
            let trace = TraceGenerator::new(seed, model).generate(key(), horizon);
            let (from, to) = (
                SimTime::EPOCH + SimDuration::from_mins(317),
                SimTime::EPOCH + horizon,
            );
            let stride = SimDuration::from_mins(stride_mins);
            let mut est = BetaEstimator::new();
            est.train(key(), &trace, from, to, stride, &deltas);

            let mut run_min = f64::INFINITY;
            let oracle: Vec<BetaPoint> = deltas
                .iter()
                .map(|&delta| {
                    let (mut trials, mut ttes) = (0usize, Vec::new());
                    let mut t = from;
                    while t + HOUR <= to {
                        let bid = trace.price_at(t) + delta;
                        trials += 1;
                        if let Some(cross) = trace.crossing_from(trace.seek(0, t), bid, t, t + HOUR)
                        {
                            ttes.push(cross - t);
                        }
                        t += stride;
                    }
                    let evictions = ttes.len();
                    ttes.sort();
                    run_min = run_min.min(evictions as f64 / trials as f64);
                    BetaPoint {
                        delta,
                        beta: run_min,
                        median_tte: ttes.get(ttes.len() / 2).copied().unwrap_or(HOUR),
                    }
                })
                .collect();
            let bits = |p: &BetaPoint| (p.delta.to_bits(), p.beta.to_bits(), p.median_tte);
            let trained = est.table(key()).expect("trained").points();
            assert!(
                oracle.iter().any(|p| p.beta > 0.0),
                "seed {seed} sees evictions"
            );
            assert_eq!(
                trained.iter().map(bits).collect::<Vec<_>>(),
                oracle.iter().map(bits).collect::<Vec<_>>(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn untrained_market_uses_conservative_defaults() {
        let est = BetaEstimator::new();
        assert_eq!(
            BetaEstimator::point(est.table(key()), 0.1),
            (0.5, SimDuration::from_mins(30))
        );
    }

    #[test]
    fn empty_tables_are_rejected() {
        assert!(BetaTable::new(vec![]).is_none());
    }

    #[test]
    fn calm_market_yields_lower_beta_than_volatile() {
        let horizon = SimDuration::from_hours(24 * 30);
        let mk = key();
        let mut calm = BetaEstimator::new();
        let t = TraceGenerator::new(5, MarketModel::calm()).generate(mk, horizon);
        calm.train(
            mk,
            &t,
            SimTime::EPOCH,
            SimTime::EPOCH + horizon,
            SimDuration::from_mins(30),
            &[0.01],
        );
        let mut wild = BetaEstimator::new();
        let t = TraceGenerator::new(5, MarketModel::volatile()).generate(mk, horizon);
        wild.train(
            mk,
            &t,
            SimTime::EPOCH,
            SimTime::EPOCH + horizon,
            SimDuration::from_mins(30),
            &[0.01],
        );
        let calm = BetaEstimator::point(calm.table(mk), 0.01).0;
        let wild = BetaEstimator::point(wild.table(mk), 0.01).0;
        assert!(calm < wild, "calm {calm} < volatile {wild}");
    }
}
