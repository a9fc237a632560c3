//! Alternative optimization objectives (paper Sec. 4.3).
//!
//! BidBrain's native objective — minimize expected cost per unit work —
//! fits batch jobs. The paper notes: "In future work, we plan to explore
//! other optimization metrics to fit other elastic application types."
//! This module implements that extension: a [`Objective`] selects how
//! candidate footprints are ranked, so one policy engine serves batch
//! jobs (cost-per-work), deadline-driven jobs (maximize throughput under
//! a spend-rate cap), and budget-capped exploration (maximize work for a
//! fixed budget).

use crate::policy::FootprintEval;

/// How BidBrain ranks candidate footprints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Objective {
    /// Minimize expected cost per unit work (Eq. 4) — the paper's
    /// default, right for batch training.
    #[default]
    CostPerWork,
    /// Maximize expected work subject to a cap on expected spend rate
    /// (dollars per hour of wall time) — right for deadline-driven jobs
    /// that want throughput but not at any price.
    ThroughputUnderBudget {
        /// Maximum expected spend in dollars per wall-clock hour.
        max_dollars_per_hour: f64,
    },
}

impl Objective {
    /// A scalar score for a candidate footprint evaluation — **lower is
    /// better** for every variant (so the policy engine can always pick
    /// the minimum).
    ///
    /// For `ThroughputUnderBudget`, footprints over the spend cap score
    /// `+∞`; affordable footprints score the negated expected work, so
    /// minimizing the score maximizes throughput.
    pub fn score(&self, eval: &FootprintEval) -> f64 {
        match *self {
            Objective::CostPerWork => eval.cost_per_work(),
            Objective::ThroughputUnderBudget {
                max_dollars_per_hour,
            } => {
                // Expected cost is over (at most) the coming hour, so it
                // doubles as the expected spend rate.
                if eval.expected_cost > max_dollars_per_hour {
                    f64::INFINITY
                } else {
                    -eval.expected_work
                }
            }
        }
    }

    /// Whether a candidate score beats the incumbent by enough margin
    /// to act (hysteresis applies only to the ratio-style objective;
    /// throughput scores compare directly).
    pub fn improves(&self, candidate: f64, incumbent: f64, min_improvement: f64) -> bool {
        match self {
            Objective::CostPerWork => {
                incumbent.is_infinite() || candidate < incumbent * (1.0 - min_improvement)
            }
            Objective::ThroughputUnderBudget { .. } => candidate < incumbent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(cost: f64, work: f64) -> FootprintEval {
        FootprintEval {
            expected_cost: cost,
            expected_work: work,
        }
    }

    #[test]
    fn cost_per_work_scores_by_ratio() {
        let o = Objective::CostPerWork;
        assert!(o.score(&eval(1.0, 10.0)) < o.score(&eval(1.0, 5.0)));
        assert!(o.score(&eval(0.0, 0.0)).is_infinite());
    }

    #[test]
    fn throughput_objective_respects_budget() {
        let o = Objective::ThroughputUnderBudget {
            max_dollars_per_hour: 2.0,
        };
        // Over budget: infinite (never chosen).
        assert!(o.score(&eval(3.0, 100.0)).is_infinite());
        // Under budget: more work scores lower (better).
        assert!(o.score(&eval(1.9, 50.0)) < o.score(&eval(1.0, 20.0)));
    }

    #[test]
    fn hysteresis_only_applies_to_ratio_objective() {
        let cpw = Objective::CostPerWork;
        assert!(!cpw.improves(0.99, 1.0, 0.05), "within hysteresis band");
        assert!(cpw.improves(0.90, 1.0, 0.05));
        assert!(
            cpw.improves(5.0, f64::INFINITY, 0.05),
            "anything beats nothing"
        );

        let tub = Objective::ThroughputUnderBudget {
            max_dollars_per_hour: 1.0,
        };
        assert!(tub.improves(-10.0, -9.9, 0.05), "any strict gain acts");
    }
}
