//! Application parameters consumed by BidBrain (paper Table 2).

use proteus_simtime::SimDuration;

/// The application characteristics BidBrain's formulas need (Table 2).
///
/// * `φ` (phi) — how efficiently the application scales with instances;
///   modelled as a per-instance efficiency decay applied to total work.
/// * `σ` (sigma) — time the application makes no progress after a change
///   to its resource footprint (add or remove).
/// * `λ` (lambda) — time lost when an allocation is evicted.
/// * `ν` (nu) — work produced per instance per unit time, proportional to
///   the instance's virtual core count (footnote 7); BidBrain takes ν
///   directly from the instance catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppParams {
    /// First-order scalability coefficient: each doubling of core count
    /// retains this fraction of per-core efficiency. 1.0 = perfect
    /// scaling. AgileML measures ≈0.95–0.99 (Sec. 6.5 shows near-ideal
    /// strong scaling).
    pub phi_per_doubling: f64,
    /// Overhead of adding/removing resources (paper σ).
    pub sigma: SimDuration,
    /// Overhead of an eviction (paper λ).
    pub lambda: SimDuration,
}

impl Default for AppParams {
    fn default() -> Self {
        AppParams {
            phi_per_doubling: 0.97,
            // AgileML incorporates machines in the background (Sec. 6.6):
            // σ is small. Evictions cost roughly one iteration blip plus
            // recovery coordination.
            sigma: SimDuration::from_secs(30),
            lambda: SimDuration::from_secs(90),
        }
    }
}

impl AppParams {
    /// Parameters for a checkpoint/restart application (the baseline
    /// scheme): evictions force a restart from the last checkpoint, so λ
    /// is many minutes, and any footprint change requires a restart too.
    pub fn checkpointing(restart_cost: SimDuration) -> Self {
        AppParams {
            phi_per_doubling: 0.97,
            sigma: restart_cost,
            lambda: restart_cost,
        }
    }

    /// The scaling efficiency φ for a footprint of `cores` total cores
    /// ([`phi`] of this application's `phi_per_doubling`).
    pub fn phi(&self, cores: f64) -> f64 {
        phi(self.phi_per_doubling, cores)
    }

    /// Renders the Table 2 glossary (used by the `tab02_params` bench
    /// binary).
    pub fn table2() -> Vec<(&'static str, &'static str)> {
        vec![
            ("β", "Probability that allocation is evicted (0-1)"),
            ("φ", "How efficiently application scales (0-1)"),
            ("σ", "Overhead of adding/removing resources (min)"),
            ("λ", "Overhead of evicting resource (min)"),
            ("ν", "Work produced by instance type"),
            ("ωi", "Max compute time remaining in allocation i"),
            ("CA", "Expected cost of a set of allocations ($)"),
            ("WA", "Expected work of a set of allocations"),
            ("EA", "Expected cost per work of a set of allocations"),
        ]
    }
}

/// The scaling efficiency φ of `cores` total cores relative to a single
/// instance, when each doubling keeps `per_doubling` of the per-core
/// efficiency: `per_doubling ^ log2(cores)`, clamped to (0, 1].
pub fn phi(per_doubling: f64, cores: f64) -> f64 {
    if cores <= 1.0 {
        return 1.0;
    }
    per_doubling.powf(cores.log2()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_decays_with_scale() {
        let p = AppParams::default();
        assert_eq!(p.phi(1.0), 1.0);
        assert!(p.phi(8.0) < p.phi(4.0));
        assert!(p.phi(1024.0) > 0.0);
        // ~0.97^log2(64) = 0.97^6 ≈ 0.833.
        assert!((p.phi(64.0) - 0.97f64.powi(6)).abs() < 1e-12);
    }

    #[test]
    fn checkpointing_params_have_heavy_overheads() {
        let cp = AppParams::checkpointing(SimDuration::from_mins(5));
        assert_eq!(cp.lambda, SimDuration::from_mins(5));
        assert_eq!(cp.sigma, SimDuration::from_mins(5));
        assert!(cp.lambda > AppParams::default().lambda);
    }

    #[test]
    fn table2_lists_all_nine_parameters() {
        assert_eq!(AppParams::table2().len(), 9);
    }
}
