//! End-of-session reporting.

use proteus_market::UsageBreakdown;
use proteus_obs::{BidEvent, Event, Recorder, SessionEvent};
use proteus_simtime::{SimDuration, SimTime};

use crate::session::FALLBACK_ON_DEMAND;

/// What a finished [`Proteus`](crate::Proteus) session spent and
/// achieved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProteusReport {
    /// Net dollars billed (hour charges minus eviction refunds).
    pub cost: f64,
    /// Simulated market time the session spanned.
    pub market_time: SimDuration,
    /// Machine-hour breakdown (on-demand / paid spot / free).
    pub usage: UsageBreakdown,
    /// Spot evictions weathered.
    pub evictions: u32,
    /// Spot allocations acquired.
    pub allocations: u32,
    /// Training iterations (global clocks) completed.
    pub clocks: u64,
    /// Final training objective over the full dataset (lower is better).
    pub final_objective: f64,
    /// Spot requests refused for lack of capacity (fault regimes only).
    pub refusals: u32,
    /// Spot requests rejected by provider-API throttling.
    pub throttles: u32,
    /// Spot grants that delivered fewer instances than requested.
    pub partial_grants: u32,
    /// Total time the watchdog kept the loop degraded to reliable-only.
    pub degraded_time: SimDuration,
    /// On-demand machines provisioned as degraded-mode fallback.
    pub fallback_on_demand: u32,
    /// Preemption-forecast alerts emitted (0 with forecasting off).
    pub forecast_alerts: u32,
    /// Proactive pre-drains the alerts triggered.
    pub pre_drains: u32,
    /// Alerts a provider warning or eviction confirmed in time.
    pub forecast_hits: u32,
    /// Alerts that expired with no eviction (false-positive migrations).
    pub false_alerts: u32,
    /// Adaptive checkpoints taken at the hazard-chosen cadence.
    pub checkpoints: u32,
    /// Reliable-tier machine losses injected or observed (each is either
    /// repaired in-job or escalates to a session restart).
    pub reliable_failures: u32,
    /// Session-level restarts from the last durable checkpoint.
    pub restarts: u32,
    /// Global clocks of training progress forfeited across all restarts
    /// (progress past the restored checkpoint at the moment of loss).
    pub work_lost_to_restart: u64,
}

impl ProteusReport {
    /// The cost this session *would* have paid running the same
    /// machine-hours entirely on-demand at `od_price` per instance-hour —
    /// the baseline of the paper's Fig. 1 comparison.
    pub fn on_demand_equivalent(&self, od_price: f64) -> f64 {
        self.usage.total_hours() * od_price
    }

    /// Fraction of machine-hours that were free compute.
    pub fn free_fraction(&self) -> f64 {
        self.usage.free_fraction()
    }
}

/// The session's report fold: the report fields its own events
/// determine, applied one event at a time. The market's fields fold in
/// the provider ([`proteus_market::MarketTally`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct SessionTally {
    /// The fields folded so far; the rest stay at their defaults.
    pub(crate) report: ProteusReport,
    /// Start of the degraded episode still open, if any.
    degraded_since: Option<SimTime>,
}

impl SessionTally {
    /// Emits one session event at `t`: always applied to the fold, then
    /// mirrored to `rec` if a recorder is attached.
    pub(crate) fn emit(&mut self, rec: Option<&Recorder>, t: SimTime, event: Event) {
        self.apply(t, &event);
        if let Some(rec) = rec {
            rec.record(t, event);
        }
    }

    /// Folds one event emitted at `t` in: the only place a session
    /// happening maps to a report field.
    fn apply(&mut self, t: SimTime, event: &Event) {
        let r = &mut self.report;
        match event {
            Event::Bid(BidEvent::ForecastAlert { .. }) => r.forecast_alerts += 1,
            Event::Session(e) => match e {
                SessionEvent::Degraded => self.degraded_since = Some(t),
                SessionEvent::Restored { degraded_ms } => {
                    self.degraded_since = None;
                    r.degraded_time += SimDuration::from_millis(*degraded_ms);
                }
                // An episode still open at the end counts up to it.
                SessionEvent::Finished { .. } => {
                    if let Some(since) = self.degraded_since.take() {
                        r.degraded_time += t.since(since);
                    }
                }
                // One fallback provisions the count the
                // `market.on_demand_granted` beside it carries.
                SessionEvent::FallbackLaunched { .. } => r.fallback_on_demand += FALLBACK_ON_DEMAND,
                SessionEvent::PreDrained { .. } => r.pre_drains += 1,
                SessionEvent::ForecastHit { .. } => r.forecast_hits += 1,
                SessionEvent::ForecastFalseAlert { .. } => r.false_alerts += 1,
                SessionEvent::CheckpointTaken { .. } => r.checkpoints += 1,
                SessionEvent::ReliableLost { .. } => r.reliable_failures += 1,
                SessionEvent::CheckpointRestored { work_lost, .. } => {
                    r.restarts += 1;
                    r.work_lost_to_restart += work_lost;
                }
                SessionEvent::Launched { .. } => {}
            },
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_demand_equivalent_prices_all_hours() {
        let report = ProteusReport {
            cost: 1.0,
            market_time: SimDuration::from_hours(2),
            usage: UsageBreakdown {
                on_demand_hours: 2.0,
                spot_paid_hours: 6.0,
                free_hours: 2.0,
            },
            evictions: 1,
            allocations: 3,
            clocks: 40,
            final_objective: 0.05,
            ..ProteusReport::default()
        };
        assert!((report.on_demand_equivalent(0.2) - 2.0).abs() < 1e-12);
        assert!((report.free_fraction() - 0.2).abs() < 1e-12);
    }
}
