//! Session configuration.

use proteus_agileml::AgileConfig;
use proteus_bidbrain::{AppParams, BidBrainConfig, ForecastConfig};
use proteus_market::{catalog, MarketFaultPlan, MarketKey, MarketModel};
use proteus_simtime::SimDuration;

/// Configuration of a [`Proteus`](crate::Proteus) session.
#[derive(Debug, Clone)]
pub struct ProteusConfig {
    /// Elastic-training configuration (stages, partitions, slack, seed).
    pub agile: AgileConfig,
    /// BidBrain policy tuning (core target, bid deltas, hysteresis).
    pub brain: BidBrainConfig,
    /// Application characteristics BidBrain's formulas use (φ, σ, λ).
    pub params: AppParams,
    /// Reliable (on-demand) machine count, held for the whole job.
    pub reliable_machines: u32,
    /// On-demand anchor market (instance type + zone).
    pub on_demand_market: MarketKey,
    /// Synthetic market statistics for the session's provider.
    pub market_model: MarketModel,
    /// Price-history horizon to synthesize (covers β-training plus the
    /// live run).
    pub market_horizon: SimDuration,
    /// Portion of the history used to train β before the job starts.
    pub beta_training: SimDuration,
    /// Cap on instances a session will hold concurrently (keeps the
    /// simulated cluster laptop-sized; the paper ran up to 192 machines).
    pub max_machines: u32,
    /// Provider-side fault regimes to install (capacity droughts,
    /// throttling, boot delays, infant mortality). `None` — the default
    /// — leaves the market pristine and every trace bit-identical.
    pub market_faults: Option<MarketFaultPlan>,
    /// How long the acquisition loop may go with refusals and no grant
    /// before the watchdog declares it wedged and degrades to the
    /// reliable tier (plus `fallback_on_demand` machines). While
    /// degraded, the spot sweep is re-probed once per window.
    pub watchdog_window: SimDuration,
    /// Extra on-demand machines provisioned when the watchdog degrades,
    /// so forward progress never depends on a drought ending. Zero
    /// disables the fallback (degraded mode then just stops sweeping).
    pub fallback_on_demand: u32,
    /// Base backoff after a market refuses a request (doubles per
    /// consecutive refusal).
    pub backoff_base: SimDuration,
    /// Cap on the per-market backoff delay.
    pub backoff_cap: SimDuration,
    /// Online preemption forecasting: watch held (market, bid) price
    /// trajectories, pre-drain ActivePS state ahead of provider
    /// warnings, and adapt the checkpoint cadence to the forecasted
    /// hazard. `None` — the default — disables the defense entirely and
    /// keeps every session trajectory bit-identical to earlier builds.
    pub forecast: Option<ForecastConfig>,
    /// Modelled wall time one model snapshot takes, the `C` in the
    /// Young's-rule interval `τ* = √(2·C·MTTF)` used by adaptive
    /// checkpointing (only consulted when `forecast` is on).
    pub checkpoint_cost: SimDuration,
    /// Provider warning lead between a bid crossing and the eviction
    /// landing. EC2 gives two minutes, GCE thirty seconds.
    pub warning_lead: SimDuration,
}

impl Default for ProteusConfig {
    fn default() -> Self {
        ProteusConfig {
            agile: AgileConfig {
                partitions: 8,
                data_blocks: 32,
                ..AgileConfig::default()
            },
            brain: BidBrainConfig {
                target_cores: 48,
                max_alloc_instances: 4,
                ..BidBrainConfig::default()
            },
            params: AppParams::default(),
            reliable_machines: 1,
            on_demand_market: MarketKey::new(catalog::c4_xlarge(), proteus_market::Zone(0)),
            market_model: MarketModel::default(),
            market_horizon: SimDuration::from_hours(24 * 21),
            beta_training: SimDuration::from_hours(24 * 14),
            max_machines: 12,
            market_faults: None,
            watchdog_window: SimDuration::from_mins(20),
            fallback_on_demand: 1,
            backoff_base: SimDuration::from_mins(2),
            backoff_cap: SimDuration::from_mins(30),
            forecast: None,
            checkpoint_cost: SimDuration::from_mins(2),
            warning_lead: proteus_market::EC2_EVICTION_WARNING,
        }
    }
}

impl ProteusConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.agile.validate()?;
        if self.reliable_machines == 0 {
            return Err("Proteus needs at least one reliable machine".into());
        }
        if self.beta_training + SimDuration::from_hours(1) > self.market_horizon {
            return Err("market horizon must extend beyond the β-training window".into());
        }
        if self.max_machines <= self.reliable_machines {
            return Err("max_machines must leave room for transient machines".into());
        }
        if self.watchdog_window < proteus_bidbrain::DECISION_STEP {
            return Err("watchdog window must cover at least one decision step".into());
        }
        if self.backoff_base > self.backoff_cap {
            return Err("backoff base must not exceed the backoff cap".into());
        }
        if let Some(fc) = &self.forecast {
            fc.validate()?;
            if self.checkpoint_cost.is_zero() {
                return Err("checkpoint cost must be positive with forecasting on".into());
            }
        }
        if self.warning_lead.is_zero() {
            return Err("warning lead must be positive (EC2 120s, GCE 30s)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ProteusConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ProteusConfig {
            reliable_machines: 0,
            ..ProteusConfig::default()
        };
        assert!(c.validate().is_err());
        c = ProteusConfig {
            beta_training: SimDuration::from_hours(100),
            market_horizon: SimDuration::from_hours(50),
            ..ProteusConfig::default()
        };
        assert!(c.validate().is_err());
        c = ProteusConfig {
            max_machines: 1,
            ..ProteusConfig::default()
        };
        assert!(c.validate().is_err());
        c = ProteusConfig {
            forecast: Some(ForecastConfig {
                rearm_threshold: 0.9,
                ..ForecastConfig::default()
            }),
            ..ProteusConfig::default()
        };
        assert!(c.validate().is_err());
        c = ProteusConfig {
            warning_lead: SimDuration::ZERO,
            ..ProteusConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn forecast_enabled_default_is_valid() {
        let c = ProteusConfig {
            forecast: Some(ForecastConfig::default()),
            ..ProteusConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
