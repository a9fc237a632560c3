//! Online preemption forecasting from the live spot-price trajectory.
//!
//! The β estimator ([`crate::beta`]) prices eviction risk from *historical
//! frequencies* — it is reactive by construction. This module goes
//! proactive, Parcae-style: a [`PreemptionForecaster`] watches the live
//! price of every held (market, bid) pair and emits a typed
//! [`EvictionAlert`] when an eviction looks imminent, *before* any
//! provider warning fires. Consumers (the session loop, the cost
//! simulator) use the alert to pre-drain transient state and to adapt the
//! checkpoint interval to the forecasted hazard ("ML on Volatile
//! Instances" first-order rule, [`adaptive_interval`]).
//!
//! Signals, per holding, over a sliding window of price samples:
//!
//! * **distance-to-bid** — the relative margin `(bid − price) / bid`;
//!   a price at or above the bid is a crossing (hazard 1), a price close
//!   below it is dangerous;
//! * **trend** — a least-squares slope over the window projects the time
//!   until the trajectory crosses the bid; crossings projected inside the
//!   forecast horizon raise hazard proportionally;
//! * **volatility** — the dispersion of step-to-step returns estimates
//!   the chance a random excursion covers the remaining margin within the
//!   horizon;
//! * **regime shift** — the synthetic generator (and real spot markets)
//!   moves between a calm mean-reverting regime and sharp spike regimes;
//!   a single-step jump far beyond calm jitter is a spike onset and maps
//!   to near-certain eviction for any bid below the spike peak.
//!
//! The four signals combine noisy-or into one hazard in `[0, 1]`;
//! hysteresis (alert / re-arm thresholds) keeps one approach from
//! emitting an alert storm. Calibration is validated empirically: the
//! tests' `ForecastScorer` replays traces and reports precision /
//! recall / lead time against ground-truth evictions (gated by the
//! replay test at the bottom of this file).

use proteus_market::{AllocationId, CloudProvider, MarketKey, SpotAllocation};
use proteus_simtime::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Floor on the adaptive checkpoint cadence (never snapshot more often
/// than every other decision step, whatever the hazard says).
const CHECKPOINT_MIN: SimDuration = SimDuration::from_mins(4);

/// Ceiling on the adaptive checkpoint cadence — the relaxed interval a
/// hazard-free market earns.
const CHECKPOINT_MAX: SimDuration = SimDuration::from_hours(4);

/// Turns online forecasting on where a caller holds it as an option
/// (`ProteusConfig::forecast`). The forecaster's tuning is fixed: the
/// constants below are calibrated against the synthetic generator's
/// regimes (calm ±10 % multiplicative jitter, spikes ≥ 1.1× on-demand)
/// and validated by the replay test at the bottom of this file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForecastConfig {}

/// Price samples retained per holding (sliding window).
const WINDOW: usize = 16;

/// Hazard at or above this emits an alert (when armed).
const ALERT_THRESHOLD: f64 = 0.6;

/// Hazard must fall below this before the holding re-arms; the gap
/// between the two thresholds is the anti-storm hysteresis band.
const REARM_THRESHOLD: f64 = 0.25;

/// Forecast horizon: alerts mean "eviction expected within this".
pub const FORECAST_HORIZON: SimDuration = SimDuration::from_mins(10);

/// Relative margin below which the distance signal starts ramping
/// (0.15: prices within 15 % of the bid raise hazard).
const MARGIN_BAND: f64 = 0.15;

const _: () = assert!(
    WINDOW >= 2,
    "the trend and volatility signals need two samples"
);
const _: () = assert!(
    0.0 <= REARM_THRESHOLD && REARM_THRESHOLD < ALERT_THRESHOLD && ALERT_THRESHOLD <= 1.0,
    "hysteresis needs 0 <= rearm < alert <= 1"
);
const _: () = assert!(
    !FORECAST_HORIZON.is_zero(),
    "the forecast horizon must be positive"
);
const _: () = assert!(MARGIN_BAND > 0.0, "the margin band must be positive");

/// Single-step relative price jump treated as a spike-regime onset.
/// Calm-regime steps are bounded by jitter plus mean reversion
/// (≲ ±20 %); spike onsets multiply the price several-fold.
const REGIME_JUMP: f64 = 0.5;

/// A typed preemption warning emitted ahead of any provider signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionAlert {
    /// The market whose price trajectory triggered the alert.
    pub market: MarketKey,
    /// The bid the holding is exposed at.
    pub bid: f64,
    /// Simulated instant the alert fired.
    pub at: SimTime,
    /// Expected time until the eviction lands (the pre-warning budget
    /// available for draining). Bounded by the forecast horizon.
    pub horizon: SimDuration,
    /// Calibrated hazard estimate in `[0, 1]` at fire time.
    pub confidence: f64,
}

/// Per-holding trajectory state.
#[derive(Debug, Clone)]
struct HoldingState {
    /// Sliding `(time, price)` window, oldest first.
    samples: Vec<(SimTime, f64)>,
    /// Most recent combined hazard.
    hazard: f64,
    /// Hysteresis: true when a new alert may fire.
    armed: bool,
}

impl HoldingState {
    fn new() -> Self {
        HoldingState {
            samples: Vec::new(),
            hazard: 0.0,
            armed: true,
        }
    }
}

/// Keys holdings by market and exact bid (bit pattern, so the map stays
/// `Ord` without comparing floats).
type HoldingKey = (MarketKey, u64);

/// Online per-(market, bid) preemption forecaster.
///
/// Feed it one price sample per holding per step via [`observe`] — or
/// let [`watch`] feed every launched holding of a provider — and it
/// returns an [`EvictionAlert`] at most once per hazard excursion.
/// Deterministic: state lives in `BTreeMap`s and every computation is a
/// pure function of the observed samples.
///
/// [`observe`]: PreemptionForecaster::observe
/// [`watch`]: PreemptionForecaster::watch
///
/// # Examples
///
/// ```
/// use proteus_bidbrain::{ForecastConfig, PreemptionForecaster};
/// use proteus_market::{catalog, MarketKey, Zone};
/// use proteus_simtime::{SimDuration, SimTime};
///
/// let mut fc = PreemptionForecaster::new(ForecastConfig::default());
/// let market = MarketKey::new(catalog::c4_xlarge(), Zone(0));
/// let (bid, mut t) = (0.10, SimTime::EPOCH);
/// // A flat price far below the bid never alerts.
/// for _ in 0..8 {
///     assert!(fc.observe(market, bid, t, 0.05).is_none());
///     t += SimDuration::from_mins(2);
/// }
/// // A spike-regime jump to the bid's doorstep alerts immediately.
/// assert!(fc.observe(market, bid, t, 0.098).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct PreemptionForecaster {
    states: BTreeMap<HoldingKey, HoldingState>,
    /// The `(market, bid)` each holding [`watch`](Self::watch) observed,
    /// or [`release`](Self::release) handed over, is exposed at, so its
    /// leaving can forget the trajectory.
    watched: BTreeMap<AllocationId, (MarketKey, f64)>,
}

impl PreemptionForecaster {
    /// A forecaster with the fixed tuning (see [`ForecastConfig`]).
    pub fn new(_: ForecastConfig) -> Self {
        PreemptionForecaster {
            states: BTreeMap::new(),
            watched: BTreeMap::new(),
        }
    }

    /// Feeds one price sample for a held (market, bid) pair and returns
    /// an alert if the hazard crossed the alert threshold while armed.
    pub fn observe(
        &mut self,
        market: MarketKey,
        bid: f64,
        now: SimTime,
        price: f64,
    ) -> Option<EvictionAlert> {
        if !(bid.is_finite() && price.is_finite()) || bid <= 0.0 || price < 0.0 {
            return None;
        }
        let key = (market, bid.to_bits());
        let state = self.states.entry(key).or_insert_with(HoldingState::new);

        // Regime-shift detection needs the previous sample before the
        // window is updated.
        let prev_price = state.samples.last().map(|&(_, p)| p);
        match state.samples.last_mut() {
            Some(last) if last.0 == now => *last = (now, price),
            _ => state.samples.push((now, price)),
        }
        if state.samples.len() > WINDOW {
            let excess = state.samples.len() - WINDOW;
            state.samples.drain(..excess);
        }

        let (hazard, lead) = combined_hazard(&state.samples, bid, prev_price, price);
        state.hazard = hazard;

        // Hysteresis: one alert per excursion above the threshold.
        if state.armed && hazard >= ALERT_THRESHOLD {
            state.armed = false;
            return Some(EvictionAlert {
                market,
                bid,
                at: now,
                horizon: lead,
                confidence: hazard,
            });
        }
        if !state.armed && hazard < REARM_THRESHOLD {
            state.armed = true;
        }
        None
    }

    /// The most recent hazard for a holding (0 when never observed).
    pub fn hazard(&self, market: MarketKey, bid: f64) -> f64 {
        self.states
            .get(&(market, bid.to_bits()))
            .map_or(0.0, |s| s.hazard)
    }

    /// The maximum hazard across all tracked holdings — the fleet-wide
    /// eviction pressure used to adapt the checkpoint interval.
    pub fn max_hazard(&self) -> f64 {
        self.states.values().map(|s| s.hazard).fold(0.0, f64::max)
    }

    /// Young's-rule checkpoint interval for the current fleet-wide
    /// pressure: `adaptive_interval` at the rate `hazard_to_rate`
    /// derives from [`max_hazard`](Self::max_hazard) over the forecast
    /// horizon, clamped to 4 min–4 h. A forecaster that has seen nothing
    /// gives the 4 h calm-market cadence.
    pub fn checkpoint_interval(&self, cost: SimDuration) -> SimDuration {
        adaptive_interval(
            cost,
            hazard_to_rate(self.max_hazard(), FORECAST_HORIZON),
            CHECKPOINT_MIN,
            CHECKPOINT_MAX,
        )
    }

    /// Drops the trajectory state of a `(market, bid)` pair.
    pub fn clear(&mut self, market: MarketKey, bid: f64) {
        self.states.remove(&(market, bid.to_bits()));
    }

    /// The forecasting pass of a decision step. First forgets every
    /// watched holding `provider` no longer holds, then feeds every
    /// launched spot allocation's price now to [`observe`](Self::observe)
    /// and returns the alerts, in allocation id order.
    pub fn watch(
        &mut self,
        provider: &CloudProvider<'_>,
        now: SimTime,
    ) -> Vec<(AllocationId, EvictionAlert)> {
        let left = |id: &&AllocationId| !provider.live_spot().any(|a| a.id == **id);
        let gone: Vec<AllocationId> = self.watched.keys().filter(left).copied().collect();
        for id in gone {
            self.release(id, provider);
        }
        let mut alerts = Vec::new();
        for a in provider.live_spot().filter(|a| !a.is_booting()) {
            let Ok(price) = provider.spot_price(a.market) else {
                continue;
            };
            self.watched.insert(a.id, (a.market, a.bid));
            if let Some(alert) = self.observe(a.market, a.bid, now, price) {
                alerts.push((a.id, alert));
            }
        }
        alerts
    }

    /// The forget rule, for the holding `id` as it leaves: its
    /// `(market, bid)` trajectory is dropped unless another live holding
    /// of `provider`, booting or not, shares the pair and so keeps
    /// observing the same price against the same bid. That holding takes
    /// over the watched entry, so the pair is forgotten when it leaves
    /// too, launched or not. A caller that can re-grant the pair within
    /// the step releases the old holding first, so the new one starts
    /// afresh.
    pub fn release(&mut self, id: AllocationId, provider: &CloudProvider<'_>) {
        let Some((market, bid)) = self.watched.remove(&id) else {
            return;
        };
        let same = |a: &SpotAllocation| a.market == market && a.bid.to_bits() == bid.to_bits();
        match provider.live_spot().find(|a| a.id != id && same(a)) {
            Some(heir) => {
                self.watched.insert(heir.id, (market, bid));
            }
            None => self.clear(market, bid),
        }
    }

    /// The holdings [`watch`](Self::watch) has observed, or a leaving
    /// sibling handed its pair to, and not yet forgotten, with the
    /// `(market, bid)` each is exposed at, in id order.
    pub fn watched(&self) -> impl Iterator<Item = (AllocationId, MarketKey, f64)> + '_ {
        self.watched
            .iter()
            .map(|(id, &(market, bid))| (*id, market, bid))
    }
}

/// Combines the four signals noisy-or into `(hazard, expected lead)`.
fn combined_hazard(
    samples: &[(SimTime, f64)],
    bid: f64,
    prev_price: Option<f64>,
    price: f64,
) -> (f64, SimDuration) {
    // Crossing: the price already reached the bid. The provider's own
    // warning is imminent; any drain budget is whatever lead remains.
    if price >= bid {
        return (1.0, SimDuration::from_secs(30));
    }
    let margin = (bid - price) / bid;

    // Distance-to-bid: ramps from 0 at the band edge to ~1 at the bid.
    let h_margin = ((MARGIN_BAND - margin) / MARGIN_BAND).clamp(0.0, 1.0);

    // Trend: project the least-squares slope to a crossing time.
    let horizon_hours = FORECAST_HORIZON.as_secs_f64() / 3600.0;
    let slope = ls_slope_per_hour(samples);
    let mut lead = FORECAST_HORIZON;
    let h_trend = if slope > 1e-12 {
        let ttc_hours = (bid - price) / slope;
        if ttc_hours <= horizon_hours {
            lead = SimDuration::from_secs_f64(ttc_hours * 3600.0);
            ((horizon_hours - ttc_hours) / horizon_hours).clamp(0.0, 1.0)
        } else {
            0.0
        }
    } else {
        0.0
    };

    // Volatility: chance a random excursion covers the margin within the
    // horizon, via a one-sided large-deviation proxy exp(−margin / σ√n).
    let h_vol = match step_return_sigma(samples) {
        Some(sigma) if sigma > 1e-9 => {
            let steps = steps_in_horizon(samples).max(1.0);
            (-margin / (sigma * steps.sqrt())).exp().clamp(0.0, 1.0)
        }
        _ => 0.0,
    };

    // Regime shift: a single-step jump far beyond calm jitter is a spike
    // onset; unless the spike already cleared the bid (handled above),
    // the price is climbing regions the calm model never visits.
    let h_regime = match prev_price {
        Some(prev) if prev > 0.0 && (price - prev) / prev >= REGIME_JUMP => {
            lead = lead.min(SimDuration::from_mins(2));
            0.95
        }
        _ => 0.0,
    };

    let survive = (1.0 - h_margin) * (1.0 - h_trend) * (1.0 - h_vol) * (1.0 - h_regime);
    ((1.0 - survive).clamp(0.0, 1.0), lead)
}

/// Least-squares slope of price over time, in dollars per hour.
fn ls_slope_per_hour(samples: &[(SimTime, f64)]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let t0 = samples[0].0;
    let n = samples.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(t, p) in samples {
        let x = (t - t0).as_secs_f64() / 3600.0;
        sx += x;
        sy += p;
        sxx += x * x;
        sxy += x * p;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

/// Standard deviation of step-to-step relative returns.
fn step_return_sigma(samples: &[(SimTime, f64)]) -> Option<f64> {
    if samples.len() < 3 {
        return None;
    }
    let mut returns = Vec::with_capacity(samples.len() - 1);
    for w in samples.windows(2) {
        if w[0].1 > 0.0 {
            returns.push((w[1].1 - w[0].1) / w[0].1);
        }
    }
    if returns.len() < 2 {
        return None;
    }
    let n = returns.len() as f64;
    let mean = returns.iter().sum::<f64>() / n;
    let var = returns.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (n - 1.0);
    Some(var.sqrt())
}

/// How many observation steps fit in the horizon, from sample spacing.
fn steps_in_horizon(samples: &[(SimTime, f64)]) -> f64 {
    let span = match (samples.first(), samples.last()) {
        (Some(&(a, _)), Some(&(b, _))) if b > a => (b - a).as_secs_f64(),
        _ => return 1.0,
    };
    let step = span / (samples.len() - 1) as f64;
    if step <= 0.0 {
        1.0
    } else {
        FORECAST_HORIZON.as_secs_f64() / step
    }
}

/// First-order optimal checkpoint interval under a forecasted hazard
/// ("ML on Volatile Instances"): Young's rule `τ* = √(2·C·MTTF)` with
/// `MTTF = 1/λ` taken from the *forecasted* eviction rate instead of a
/// static historical one, clamped to `[min, max]`.
///
/// `hazard_per_hour` is the instantaneous eviction rate λ (events/hour);
/// a rate of 0 means no forecasted pressure and returns `max`.
pub fn adaptive_interval(
    checkpoint_cost: SimDuration,
    hazard_per_hour: f64,
    min: SimDuration,
    max: SimDuration,
) -> SimDuration {
    if !(hazard_per_hour.is_finite()) || hazard_per_hour <= 0.0 {
        return max;
    }
    let c_hours = checkpoint_cost.as_secs_f64() / 3600.0;
    let mttf_hours = 1.0 / hazard_per_hour;
    let tau_hours = (2.0 * c_hours * mttf_hours).sqrt();
    let tau = SimDuration::from_secs_f64(tau_hours * 3600.0);
    tau.clamp(min, max)
}

/// Converts a bounded hazard estimate over a horizon into an eviction
/// rate λ (events/hour) for [`adaptive_interval`]: the exponential-model
/// inversion `λ = −ln(1 − h) / horizon`, capped for h → 1.
pub fn hazard_to_rate(hazard: f64, horizon: SimDuration) -> f64 {
    let h = hazard.clamp(0.0, 0.999);
    let horizon_hours = (horizon.as_secs_f64() / 3600.0).max(1e-6);
    -(1.0 - h).ln() / horizon_hours
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_market::{catalog, MarketFaultPlan, PriceTrace, TraceSet, Zone};
    use proteus_market::{MarketModel, TraceGenerator};

    fn key() -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(0))
    }

    /// One alert or eviction observation for offline scoring.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Stamp {
        market: MarketKey,
        at: SimTime,
    }

    /// Replay scorer: pairs recorded alerts with ground-truth evictions and
    /// reports precision / recall / lead time.
    ///
    /// An alert is a *true positive* when an eviction in the same market
    /// lands within `match_window` after it; each eviction consumes at most
    /// one alert (the earliest unmatched one). Remaining alerts are false
    /// positives; remaining evictions are misses.
    #[derive(Debug, Clone)]
    struct ForecastScorer {
        match_window: SimDuration,
        alerts: Vec<Stamp>,
        evictions: Vec<Stamp>,
    }

    /// Aggregate forecast accuracy over one replay.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct ForecastScore {
        /// Alerts emitted.
        alerts: usize,
        /// Ground-truth evictions observed.
        evictions: usize,
        /// Alerts matched to a following eviction.
        true_positives: usize,
        /// Alerts with no eviction inside the match window.
        false_positives: usize,
        /// Evictions no alert preceded.
        misses: usize,
        /// `TP / (TP + FP)`; 1.0 when no alerts fired.
        precision: f64,
        /// `TP / (TP + FN)`; 1.0 when nothing was evicted.
        recall: f64,
        /// Mean alert-to-eviction lead over true positives.
        mean_lead: SimDuration,
    }

    impl ForecastScorer {
        /// A scorer matching alerts to evictions within `match_window`.
        fn new(match_window: SimDuration) -> Self {
            ForecastScorer {
                match_window,
                alerts: Vec::new(),
                evictions: Vec::new(),
            }
        }

        /// Records an emitted alert.
        fn record_alert(&mut self, market: MarketKey, at: SimTime) {
            self.alerts.push(Stamp { market, at });
        }

        /// Records a ground-truth eviction.
        fn record_eviction(&mut self, market: MarketKey, at: SimTime) {
            self.evictions.push(Stamp { market, at });
        }

        /// Matches and scores everything recorded so far.
        fn score(&self) -> ForecastScore {
            let mut alerts = self.alerts.clone();
            alerts.sort_by_key(|s| (s.at, s.market));
            let mut evictions = self.evictions.clone();
            evictions.sort_by_key(|s| (s.at, s.market));

            let mut used = vec![false; alerts.len()];
            let mut tp = 0usize;
            let mut misses = 0usize;
            let mut lead_sum = SimDuration::ZERO;
            for ev in &evictions {
                let hit = alerts.iter().enumerate().find(|(i, a)| {
                    !used[*i]
                        && a.market == ev.market
                        && a.at <= ev.at
                        && ev.at - a.at <= self.match_window
                });
                match hit {
                    Some((i, a)) => {
                        used[i] = true;
                        tp += 1;
                        lead_sum += ev.at - a.at;
                    }
                    None => misses += 1,
                }
            }
            let fp = used.iter().filter(|u| !**u).count();
            let precision = if alerts.is_empty() {
                1.0
            } else {
                tp as f64 / alerts.len() as f64
            };
            let recall = if evictions.is_empty() {
                1.0
            } else {
                tp as f64 / evictions.len() as f64
            };
            let mean_lead = if tp == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_secs_f64(lead_sum.as_secs_f64() / tp as f64)
            };
            ForecastScore {
                alerts: alerts.len(),
                evictions: evictions.len(),
                true_positives: tp,
                false_positives: fp,
                misses,
                precision,
                recall,
                mean_lead,
            }
        }
    }

    fn step() -> SimDuration {
        SimDuration::from_secs(120)
    }

    #[test]
    fn calm_prices_far_below_bid_never_alert() {
        let mut fc = PreemptionForecaster::new(ForecastConfig::default());
        let bid = 0.10;
        let mut t = SimTime::EPOCH;
        // ±2 % wiggle around half the bid: no trend, low volatility.
        for i in 0..200u32 {
            let p = 0.05 * (1.0 + 0.02 * f64::from(i % 3) - 0.02);
            assert!(
                fc.observe(key(), bid, t, p).is_none(),
                "false alert at step {i}"
            );
            t += step();
        }
        assert!(fc.hazard(key(), bid) < 0.25);
    }

    #[test]
    fn price_at_or_above_bid_is_certain_hazard() {
        let mut fc = PreemptionForecaster::new(ForecastConfig::default());
        let alert = fc.observe(key(), 0.10, SimTime::EPOCH, 0.11);
        let alert = alert.expect("crossing must alert");
        assert!((alert.confidence - 1.0).abs() < 1e-12);
        assert!(alert.horizon <= SimDuration::from_mins(1));
    }

    #[test]
    fn steady_climb_alerts_before_crossing() {
        let mut fc = PreemptionForecaster::new(ForecastConfig::default());
        let bid = 0.10;
        let mut t = SimTime::EPOCH;
        let mut alert_at = None;
        let mut crossed_at = None;
        // Climb from $0.05 toward the bid in 0.2 %-of-bid steps.
        for i in 0..400u32 {
            let p = 0.05 + f64::from(i) * 0.0002;
            if p >= bid && crossed_at.is_none() {
                crossed_at = Some(t);
                break;
            }
            if let Some(a) = fc.observe(key(), bid, t, p) {
                alert_at.get_or_insert(a.at);
            }
            t += step();
        }
        let alert_at = alert_at.expect("climb toward the bid must alert");
        let crossed_at = crossed_at.expect("climb must eventually cross");
        assert!(
            alert_at < crossed_at,
            "alert {alert_at:?} must precede crossing {crossed_at:?}"
        );
    }

    #[test]
    fn spike_jump_raises_hazard_sharply() {
        let mut fc = PreemptionForecaster::new(ForecastConfig::default());
        let bid = 0.50; // High bid: the spike onset sample is still below.
        let mut t = SimTime::EPOCH;
        for _ in 0..8 {
            assert!(fc.observe(key(), bid, t, 0.05).is_none());
            t += step();
        }
        // Spike onset: 8× jump, still below the bid.
        let alert = fc.observe(key(), bid, t, 0.40);
        assert!(alert.is_some(), "regime jump must alert");
        let alert = alert.unwrap_or_else(|| unreachable!());
        assert!(alert.confidence >= 0.9);
    }

    #[test]
    fn hysteresis_prevents_alert_storms() {
        let mut fc = PreemptionForecaster::new(ForecastConfig::default());
        let bid = 0.10;
        let mut t = SimTime::EPOCH;
        let mut alerts = 0;
        // Hold the price just under the bid for many steps: hazard stays
        // above threshold the whole time, but only one alert may fire.
        for _ in 0..50 {
            if fc.observe(key(), bid, t, 0.099).is_some() {
                alerts += 1;
            }
            t += step();
        }
        assert_eq!(alerts, 1, "sustained hazard must alert exactly once");
        // Dropping far below the bid re-arms; a fresh excursion re-alerts.
        for _ in 0..20 {
            fc.observe(key(), bid, t, 0.03);
            t += step();
        }
        assert!(fc.observe(key(), bid, t, 0.099).is_some());
    }

    #[test]
    fn holdings_are_independent_and_clearable() {
        let mut fc = PreemptionForecaster::new(ForecastConfig::default());
        let other = MarketKey::new(catalog::c4_xlarge(), Zone(1));
        fc.observe(key(), 0.10, SimTime::EPOCH, 0.05);
        fc.observe(other, 0.20, SimTime::EPOCH, 0.199);
        assert!(fc.hazard(other, 0.20) > fc.hazard(key(), 0.10));
        assert!((fc.max_hazard() - fc.hazard(other, 0.20)).abs() < 1e-12);
        fc.clear(other, 0.20);
        assert_eq!(fc.hazard(other, 0.20), 0.0);
    }

    /// `watch` forgets a holding gone since its last call, and `release`
    /// one leaving now, unless a live holding — booting or not — shares
    /// its `(market, bid)`. A kept trajectory stays disarmed after its
    /// alert, so the sibling that reads it on does not alert again; a
    /// forgotten one reads no hazard.
    #[test]
    fn forgetting_a_holding_keeps_a_pair_a_live_sibling_shares() {
        // Two flat markets a cent under the 0.10 bid: every watch of a
        // holding bid there reads a hazard above the alert threshold.
        let other = MarketKey::new(catalog::c4_xlarge(), Zone(1));
        let mut set = TraceSet::new();
        for m in [key(), other] {
            let flat = PriceTrace::from_points(vec![(SimTime::EPOCH, 0.099)]).expect("flat");
            set.insert(m, flat);
        }
        let mut p = CloudProvider::new(set);
        let mut fc = PreemptionForecaster::new(ForecastConfig::default());
        let bid = 0.10;
        let grant =
            |p: &mut CloudProvider<'_>, m, bid| p.request_spot(m, 1, bid).expect("grant").id;
        let watch = |fc: &mut PreemptionForecaster, p: &mut CloudProvider<'_>, mins| {
            let now = SimTime::EPOCH + SimDuration::from_mins(mins);
            p.advance_to(now).expect("forward");
            let alerts = fc.watch(p, now);
            alerts.into_iter().map(|(id, _)| id).collect::<Vec<_>>()
        };
        let a = grant(&mut p, key(), bid);
        let b = grant(&mut p, key(), bid);
        let c = grant(&mut p, other, bid);
        let e = grant(&mut p, key(), 0.11);
        // One alert per pair: `b` reads on the trajectory `a` disarmed.
        assert_eq!(watch(&mut fc, &mut p, 0), [a, c]);
        // `a` leaves unannounced; its sibling `b` keeps the pair.
        p.terminate(a).expect("live");
        assert_eq!(watch(&mut fc, &mut p, 2), []);
        // `b` leaves, released at once, while `d` boots at the pair.
        let boot = SimDuration::from_mins(5);
        p.set_fault_plan(MarketFaultPlan::new(1).with_boot_delay(boot, boot));
        let d = grant(&mut p, key(), bid);
        p.terminate(b).expect("live");
        fc.release(b, &p);
        assert!(fc.hazard(key(), bid) > 0.6, "the booting sibling keeps it");
        // Launched, `d` reads on without a second alert.
        assert_eq!(watch(&mut fc, &mut p, 10), []);
        let watched: Vec<_> = fc.watched().map(|(id, ..)| id).collect();
        assert_eq!(watched, [c, e, d]);
        // `d` leaves unannounced. What stays shares the market or the
        // bid, never both.
        p.terminate(d).expect("live");
        watch(&mut fc, &mut p, 12);
        assert_eq!(
            fc.hazard(key(), bid),
            0.0,
            "no live holding shares the pair"
        );
        assert_eq!(fc.watched().map(|(id, ..)| id).collect::<Vec<_>>(), [c, e]);
    }

    /// A pair kept for a booting sibling is forgotten when that sibling
    /// leaves without ever launching.
    #[test]
    fn a_pair_kept_for_a_sibling_that_never_launches_is_forgotten() {
        let mut set = TraceSet::new();
        let flat = PriceTrace::from_points(vec![(SimTime::EPOCH, 0.099)]).expect("flat");
        set.insert(key(), flat);
        let mut p = CloudProvider::new(set);
        let mut fc = PreemptionForecaster::new(ForecastConfig::default());
        let bid = 0.10;
        let launched = p.request_spot(key(), 1, bid).expect("grant").id;
        assert_eq!(fc.watch(&p, SimTime::EPOCH).len(), 1);
        let boot = SimDuration::from_mins(5);
        p.set_fault_plan(MarketFaultPlan::new(1).with_boot_delay(boot, boot));
        let booting = p.request_spot(key(), 1, bid).expect("grant").id;
        p.terminate(launched).expect("live");
        fc.release(launched, &p);
        assert!(fc.max_hazard() > 0.6, "the booting sibling keeps the pair");
        p.terminate(booting).expect("live");
        assert!(fc.watch(&p, SimTime::EPOCH).is_empty());
        assert_eq!(p.live_spot().count(), 0);
        assert_eq!(fc.max_hazard(), 0.0, "no live holding shares the pair");
        assert_eq!(fc.watched().count(), 0);
    }

    #[test]
    fn forecaster_is_deterministic() {
        let run = || {
            let gen = TraceGenerator::new(9, MarketModel::volatile());
            let trace = gen.generate(key(), SimDuration::from_hours(48));
            let mut fc = PreemptionForecaster::new(ForecastConfig::default());
            let bid = 0.08;
            let mut t = SimTime::EPOCH;
            let mut out = Vec::new();
            while t < SimTime::EPOCH + SimDuration::from_hours(48) {
                if let Some(a) = fc.observe(key(), bid, t, trace.price_at(t)) {
                    out.push((a.at, a.confidence.to_bits(), a.horizon));
                }
                t += step();
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn adaptive_interval_follows_youngs_rule() {
        // C = 2 min, λ = 0.6/hour → MTTF = 100 min: τ = √(2·2·100) = 20 min.
        let tau = adaptive_interval(
            SimDuration::from_mins(2),
            0.6,
            SimDuration::from_mins(1),
            SimDuration::from_hours(12),
        );
        assert!((tau.as_secs_f64() - 20.0 * 60.0).abs() < 1.0, "{tau:?}");
    }

    #[test]
    fn adaptive_interval_clamps_and_degrades_to_fixed() {
        let min = SimDuration::from_mins(5);
        let max = SimDuration::from_hours(2);
        // No hazard → the fixed (max) interval.
        assert_eq!(
            adaptive_interval(SimDuration::from_mins(2), 0.0, min, max),
            max
        );
        // Extreme hazard → clamped at min, never zero.
        assert_eq!(
            adaptive_interval(SimDuration::from_mins(2), 1e9, min, max),
            min
        );
    }

    #[test]
    fn hazard_rate_inversion_is_monotonic() {
        let h = SimDuration::from_mins(10);
        let lo = hazard_to_rate(0.1, h);
        let hi = hazard_to_rate(0.9, h);
        assert!(lo > 0.0 && hi > lo);
        assert_eq!(hazard_to_rate(0.0, h), 0.0);
        assert!(hazard_to_rate(1.0, h).is_finite());
    }

    #[test]
    fn scorer_matches_alerts_to_evictions() {
        let mut sc = ForecastScorer::new(SimDuration::from_mins(30));
        let m = key();
        // TP: alert 10 min before the eviction.
        sc.record_alert(m, SimTime::EPOCH + SimDuration::from_mins(10));
        sc.record_eviction(m, SimTime::EPOCH + SimDuration::from_mins(20));
        // FP: alert with no eviction inside the window.
        sc.record_alert(m, SimTime::EPOCH + SimDuration::from_hours(3));
        // FN: eviction with no preceding alert.
        sc.record_eviction(m, SimTime::EPOCH + SimDuration::from_hours(6));
        let s = sc.score();
        assert_eq!((s.true_positives, s.false_positives, s.misses), (1, 1, 1));
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert!((s.recall - 0.5).abs() < 1e-12);
        assert_eq!(s.mean_lead, SimDuration::from_mins(10));
    }

    #[test]
    fn scorer_respects_market_boundaries() {
        let mut sc = ForecastScorer::new(SimDuration::from_mins(30));
        let other = MarketKey::new(catalog::c4_xlarge(), Zone(1));
        sc.record_alert(key(), SimTime::EPOCH + SimDuration::from_mins(10));
        sc.record_eviction(other, SimTime::EPOCH + SimDuration::from_mins(20));
        let s = sc.score();
        assert_eq!((s.true_positives, s.false_positives, s.misses), (0, 1, 1));
    }

    #[test]
    fn scorer_on_generator_trace_has_useful_accuracy() {
        // Replay volatile traces: sample every 2 min, feed the
        // forecaster, and score against ground-truth bid crossings.
        let horizon = SimDuration::from_hours(24 * 4);
        let (mut hits, mut misses) = (0, 0);
        for seed in [2016, 7, 42, 101] {
            let trace = TraceGenerator::new(seed, MarketModel::volatile()).generate(key(), horizon);
            let mut fc = PreemptionForecaster::new(ForecastConfig::default());
            let mut sc = ForecastScorer::new(SimDuration::from_mins(30));
            let bid = trace.price_at(SimTime::EPOCH) + 0.02;
            let mut t = SimTime::EPOCH;
            let mut above = false;
            while t < SimTime::EPOCH + horizon {
                let p = trace.price_at(t);
                if p >= bid {
                    if !above {
                        // The crossing sample is still observable before
                        // the eviction lands: the provider gives a
                        // 2-minute warning lead after the price crosses
                        // the bid. After it the holding is gone, so the
                        // forecaster restarts cold as a session would.
                        if let Some(a) = fc.observe(key(), bid, t, p) {
                            sc.record_alert(key(), a.at);
                        }
                        sc.record_eviction(key(), t + SimDuration::from_mins(2));
                        fc.clear(key(), bid);
                    }
                    above = true;
                } else {
                    above = false;
                    if let Some(a) = fc.observe(key(), bid, t, p) {
                        sc.record_alert(key(), a.at);
                    }
                }
                t += step();
            }
            let s = sc.score();
            assert!(s.evictions > 0, "volatile trace {seed} must evict");
            assert!(
                s.recall >= 0.7,
                "seed {seed}: recall {} too low over {} evictions",
                s.recall,
                s.evictions
            );
            assert!(
                s.mean_lead >= SimDuration::from_mins(2),
                "seed {seed}: lead {} must cover at least the provider warning",
                s.mean_lead
            );
            hits += s.true_positives;
            misses += s.misses;
        }
        // A forecaster that misses evictions defends nothing.
        let recall = hits as f64 / (hits + misses) as f64;
        assert!(recall >= 0.7, "pooled recall {recall} over four traces");
    }
}
