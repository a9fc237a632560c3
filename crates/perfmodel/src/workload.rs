//! Per-iteration workload characterization.

/// The per-iteration resource demands of one ML application + dataset.
///
/// All volumes are totals across the whole job for one full pass
/// ("iteration" in the paper's figures):
///
/// * `compute_core_secs` — CPU work, spread evenly over worker cores;
/// * `read_mb` — parameter bytes served PS → workers;
/// * `update_mb` — coalesced update bytes workers → PS;
/// * `backup_mb` — coalesced delta bytes ActivePS → BackupPS (bounded by
///   the model size since deltas aggregate per key; typically a fraction
///   of it because not every key changes every iteration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppTraffic {
    /// Total compute per iteration (core-seconds).
    pub compute_core_secs: f64,
    /// Total PS→worker read volume per iteration (MB).
    pub read_mb: f64,
    /// Total worker→PS update volume per iteration (MB).
    pub update_mb: f64,
    /// Total ActivePS→BackupPS coalesced push volume per iteration (MB).
    pub backup_mb: f64,
}

impl AppTraffic {
    /// Validates the workload: all figures must be finite and
    /// non-negative, with some compute.
    pub fn validate(&self) -> Result<(), String> {
        let vals = [
            self.compute_core_secs,
            self.read_mb,
            self.update_mb,
            self.backup_mb,
        ];
        if vals.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err("workload volumes must be finite and non-negative".into());
        }
        if self.compute_core_secs <= 0.0 {
            return Err("an iteration must involve some compute".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_workloads() {
        let good = AppTraffic {
            compute_core_secs: 100.0,
            read_mb: 10.0,
            update_mb: 10.0,
            backup_mb: 5.0,
        };
        assert!(good.validate().is_ok());
        assert!(AppTraffic {
            compute_core_secs: 0.0,
            ..good
        }
        .validate()
        .is_err());
        assert!(AppTraffic {
            read_mb: -1.0,
            ..good
        }
        .validate()
        .is_err());
        assert!(AppTraffic {
            backup_mb: f64::NAN,
            ..good
        }
        .validate()
        .is_err());
    }
}
