//! Job specifications and the four evaluated schemes.

use proteus_bidbrain::{phi, AppParams};
use proteus_market::MarketKey;
use proteus_simtime::SimDuration;

/// On-demand machines every job holds for its whole life: the reliable
/// tier of the AgileML schemes (the paper's Proteus runs used 3).
pub(crate) const ON_DEMAND_COUNT: u32 = 3;

/// vCPU budget of the standard-bidding schemes, which replace the
/// 128-machine on-demand fleet like-for-like (Spot Fleet semantics),
/// and of the Proteus scheme's degraded-mode on-demand fallback.
pub(crate) const STANDARD_CORES: u32 = 512;

/// What the job needs and which reliable base it keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Useful work required, in core-hours at perfect scaling (φ = 1).
    pub work_core_hours: f64,
    /// Market whose instance type is used for on-demand machines (the
    /// job holds `ON_DEMAND_COUNT`, three, of them).
    pub on_demand_market: MarketKey,
    /// Whether the on-demand machines contribute compute (they do not in
    /// stage 3, the common configuration at high transient ratios — and
    /// the paper's Fig. 6 toy likewise counts their work as zero).
    pub on_demand_works: bool,
    /// vCPU budget BidBrain provisions toward. Proteus grows its
    /// footprint well past the on-demand fleet when spot capacity is
    /// cheap — the paper ran up to 189 spot + 3 on-demand machines
    /// against a 128-machine on-demand baseline.
    pub target_cores: u32,
}

impl JobSpec {
    /// A job sized like the paper's Cluster-B runs: `hours` of work for
    /// 128 c4.xlarge machines (`STANDARD_CORES`, 512), scaling with
    /// [`AppParams::default`]'s φ.
    pub fn cluster_b_job(hours: f64, on_demand_market: MarketKey) -> Self {
        let cores = f64::from(STANDARD_CORES);
        JobSpec {
            // Work the 128-machine on-demand fleet finishes in `hours`.
            work_core_hours: cores * hours * phi(AppParams::default().phi_per_doubling, cores),
            on_demand_market,
            on_demand_works: false,
            target_cores: 1_536, // Proteus over-provisions when cheap.
        }
    }
}

/// Delay to restart on fresh machines after an eviction, for both
/// checkpoint schemes: their σ and λ.
const RESTART_DELAY: SimDuration = SimDuration::from_mins(8);

/// Which policy stack runs the job. Its transition costs are its
/// [`app_params`](SchemeKind::app_params); a variant holds only what a
/// caller turns.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeKind {
    /// All on-demand machines, no spot (the 100 % cost baseline).
    AllOnDemand {
        /// Machines to run.
        machines: u32,
    },
    /// Standard bidding + checkpoint/restart elasticity: an eviction
    /// loses the work since the last checkpoint and pays the restart
    /// delay.
    StandardCheckpoint {
        /// Steady-state throughput lost to producing/storing checkpoints
        /// (paper observes 17 % with MTTF-derived frequency).
        checkpoint_overhead: f64,
        /// Work interval between checkpoints, in core-hours; work since
        /// the last checkpoint is lost on eviction.
        checkpoint_interval_core_hours: f64,
    },
    /// Standard bidding + checkpoint/restart with the checkpoint cadence
    /// re-derived every decision step from a live preemption forecast:
    /// Young's rule `τ* = sqrt(2·C/λ̂)` on the hazard rate `λ̂` the
    /// [`proteus_bidbrain::PreemptionForecaster`] reads off the held
    /// markets' price trajectories. Calm markets stretch the interval
    /// (shrinking the `C/τ` throughput tax); a climbing price tightens
    /// it, and an eviction alert triggers one immediate checkpoint so
    /// the predicted eviction loses almost nothing. Same restart delay
    /// as [`StandardCheckpoint`](SchemeKind::StandardCheckpoint).
    AdaptiveCheckpoint,
    /// Standard bidding + AgileML elasticity.
    StandardAgileML,
    /// Full Proteus: BidBrain bidding + AgileML elasticity.
    Proteus {
        /// Candidate bid deltas BidBrain sweeps; pin to one value for
        /// the fixed-delta ablation (paper Sec. 6.3 reports that always
        /// bidding just above market ran 3–4× slower).
        bid_deltas: Vec<f64>,
    },
}

impl SchemeKind {
    /// The paper's checkpointing baseline parameters (17 % overhead).
    pub fn paper_checkpoint() -> Self {
        SchemeKind::StandardCheckpoint {
            checkpoint_overhead: 0.17,
            // ≈20 minutes of 512-core progress between checkpoints.
            checkpoint_interval_core_hours: 170.0,
        }
    }

    /// The adaptive arm of the checkpointing baseline.
    pub fn paper_adaptive_checkpoint() -> Self {
        SchemeKind::AdaptiveCheckpoint
    }

    /// Standard bidding with AgileML's cheap elasticity.
    pub fn paper_standard_agileml() -> Self {
        SchemeKind::StandardAgileML
    }

    /// Full Proteus, sweeping the paper's bid deltas.
    pub fn paper_proteus() -> Self {
        SchemeKind::Proteus {
            bid_deltas: proteus_bidbrain::BetaEstimator::default_deltas(),
        }
    }

    /// Proteus pinned to a single bid delta (ablation).
    pub fn proteus_fixed_delta(delta: f64) -> Self {
        SchemeKind::Proteus {
            bid_deltas: vec![delta],
        }
    }

    /// The job's transition costs under this scheme, which its BidBrain
    /// prices with and its loop pauses by: σ after a Proteus grant, λ
    /// after an eviction.
    ///
    /// * Proteus: AgileML's [`AppParams::END_TO_END`] (λ 240 s).
    /// * Standard+AgileML: Table 2's [`AppParams::default`] (λ 90 s).
    /// * Both checkpoint schemes: σ = λ = the 8 min restart delay.
    /// * AllOnDemand: Table 2's with λ 0 (it holds no spot).
    pub fn app_params(&self) -> AppParams {
        match self {
            SchemeKind::Proteus { .. } => AppParams::END_TO_END,
            SchemeKind::StandardAgileML => AppParams::default(),
            SchemeKind::StandardCheckpoint { .. } | SchemeKind::AdaptiveCheckpoint => AppParams {
                sigma: RESTART_DELAY,
                lambda: RESTART_DELAY,
                ..AppParams::default()
            },
            SchemeKind::AllOnDemand { .. } => AppParams {
                lambda: SimDuration::ZERO,
                ..AppParams::default()
            },
        }
    }

    /// Short label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::AllOnDemand { .. } => "AllOnDemand",
            SchemeKind::StandardCheckpoint { .. } => "Standard+Checkpoint",
            SchemeKind::AdaptiveCheckpoint => "Adaptive+Checkpoint",
            SchemeKind::StandardAgileML => "Standard+AgileML",
            SchemeKind::Proteus { .. } => "Proteus",
        }
    }
}

/// A scheme bound to a job.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    /// The policy stack.
    pub kind: SchemeKind,
    /// The job it runs.
    pub job: JobSpec,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_market::{catalog, Zone};

    #[test]
    fn cluster_b_job_scales_with_hours() {
        let mk = MarketKey::new(catalog::c4_xlarge(), Zone(0));
        let j2 = JobSpec::cluster_b_job(2.0, mk);
        let j20 = JobSpec::cluster_b_job(20.0, mk);
        assert!((j20.work_core_hours / j2.work_core_hours - 10.0).abs() < 1e-9);
        assert_eq!(ON_DEMAND_COUNT, 3, "the paper's Proteus runs held three");
    }

    /// Each scheme's transition costs, pinned: Proteus and its
    /// fixed-delta ablation charge AgileML end to end, Standard+AgileML
    /// Table 2's, the checkpoint schemes their 8 min restart for both σ
    /// and λ, and AllOnDemand no eviction.
    #[test]
    fn app_params_are_pinned() {
        let (secs, mins) = (SimDuration::from_secs, SimDuration::from_mins);
        let params = |phi_per_doubling, sigma, lambda| AppParams {
            phi_per_doubling,
            sigma,
            lambda,
        };
        assert_eq!(AppParams::default(), params(0.97, secs(30), secs(90)));
        assert_eq!(AppParams::END_TO_END, params(0.97, secs(30), secs(240)));
        let pinned = [
            (
                SchemeKind::AllOnDemand { machines: 128 },
                secs(30),
                SimDuration::ZERO,
            ),
            (SchemeKind::paper_checkpoint(), mins(8), mins(8)),
            (SchemeKind::paper_adaptive_checkpoint(), mins(8), mins(8)),
            (SchemeKind::paper_standard_agileml(), secs(30), secs(90)),
            (SchemeKind::paper_proteus(), secs(30), secs(240)),
            (SchemeKind::proteus_fixed_delta(0.01), secs(30), secs(240)),
        ];
        for (kind, sigma, lambda) in pinned {
            assert_eq!(
                kind.app_params(),
                params(0.97, sigma, lambda),
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            SchemeKind::AllOnDemand { machines: 1 }.label(),
            SchemeKind::paper_checkpoint().label(),
            SchemeKind::paper_adaptive_checkpoint().label(),
            SchemeKind::paper_standard_agileml().label(),
            SchemeKind::paper_proteus().label(),
        ];
        let set: std::collections::BTreeSet<&str> = labels.into_iter().collect();
        assert_eq!(set.len(), 5);
    }
}
