//! Job configuration.

use crate::stage::Stage;

/// Configuration of an AgileML training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgileConfig {
    /// SSP staleness slack in clocks (0 = bulk-synchronous).
    pub slack: u64,
    /// Number of fixed parameter partitions `N`. The paper sets `N` to
    /// half the maximum resource footprint so partitions never need
    /// re-sharding (Sec. 3.3).
    pub partitions: u32,
    /// Number of fixed input-data blocks assigned to workers.
    pub data_blocks: u32,
    /// Transient:reliable ratio above which stage 2 is used (paper: 1.0).
    pub stage2_threshold: f64,
    /// Transient:reliable ratio above which stage 3 is used (paper: 15.0).
    pub stage3_threshold: f64,
    /// Fraction of transient nodes hosting an ActivePS (paper: 0.5).
    pub activeps_fraction: f64,
    /// Pin the job to one stage regardless of ratio (tiering ablations).
    pub force_stage: Option<Stage>,
    /// Experiment seed (parameter init and any sampling).
    pub seed: u64,
}

impl Default for AgileConfig {
    fn default() -> Self {
        AgileConfig {
            slack: 0,
            partitions: 8,
            data_blocks: 32,
            stage2_threshold: 1.0,
            stage3_threshold: 15.0,
            activeps_fraction: 0.5,
            force_stage: None,
            seed: 0,
        }
    }
}

impl AgileConfig {
    /// Validates invariants, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.partitions == 0 {
            return Err("partitions must be positive".into());
        }
        if self.data_blocks == 0 {
            return Err("data_blocks must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.activeps_fraction) {
            return Err("activeps_fraction must be in [0, 1]".into());
        }
        // A NaN threshold compares false both ways: the job would
        // silently stay in stage 1.
        if !self.stage2_threshold.is_finite() || !self.stage3_threshold.is_finite() {
            return Err("stage thresholds must be finite".into());
        }
        if self.stage3_threshold < self.stage2_threshold {
            return Err("stage3_threshold must be >= stage2_threshold".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_paper_shaped() {
        let c = AgileConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.stage2_threshold, 1.0);
        assert_eq!(c.stage3_threshold, 15.0);
        assert_eq!(c.activeps_fraction, 0.5);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = AgileConfig {
            partitions: 0,
            ..AgileConfig::default()
        };
        assert!(c.validate().is_err());
        c.partitions = 4;
        c.data_blocks = 0;
        assert!(c.validate().is_err());
        c.data_blocks = 4;
        c.activeps_fraction = 1.5;
        assert!(c.validate().is_err());
        c.activeps_fraction = 0.5;
        c.stage3_threshold = 0.5;
        assert!(c.validate().is_err());
        c.stage3_threshold = f64::NAN;
        assert!(c.validate().is_err());
        c.stage3_threshold = 15.0;
        c.stage2_threshold = f64::NAN;
        assert!(c.validate().is_err());
    }
}
