//! Session configuration.

use proteus_agileml::AgileConfig;
use proteus_bidbrain::ForecastConfig;
use proteus_market::{catalog, MarketFaultPlan, MarketKey, MarketModel};
use proteus_simtime::SimDuration;

/// Configuration of a [`Proteus`](crate::Proteus) session.
#[derive(Debug, Clone)]
pub struct ProteusConfig {
    /// Elastic-training configuration (stages, partitions, slack, seed).
    pub agile: AgileConfig,
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
    /// Online preemption forecasting: watch held (market, bid) price
    /// trajectories, pre-drain ActivePS state ahead of provider
    /// warnings, and adapt the checkpoint cadence to the forecasted
    /// hazard. `None` — the default — disables the defense entirely and
    /// keeps every session trajectory bit-identical to earlier builds.
    pub forecast: Option<ForecastConfig>,
    /// Provider warning lead between a bid crossing and the eviction
    /// landing: EC2 gives two minutes. A GCE preemptible market's thirty
    /// seconds are that market's own; tests set 30 s here to model them.
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
            reliable_machines: 1,
            on_demand_market: MarketKey::new(catalog::c4_xlarge(), proteus_market::Zone(0)),
            market_model: MarketModel::default(),
            market_horizon: SimDuration::from_hours(24 * 21),
            beta_training: SimDuration::from_hours(24 * 14),
            max_machines: 12,
            market_faults: None,
            forecast: None,
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
            warning_lead: SimDuration::ZERO,
            ..ProteusConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn more_machines_than_data_blocks_validate() {
        // Workers without a block are not waited on, so a session may
        // grow past its data blocks.
        let mut c = ProteusConfig::default();
        c.max_machines = c.agile.data_blocks + 1;
        assert!(c.validate().is_ok());
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
