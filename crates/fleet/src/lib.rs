//! Multi-tenant fleet scheduling: many jobs, one market.
//!
//! Proteus (EuroSys 2017) optimizes one job's cost-per-work (Eq. 4) on
//! a dynamic spot market. At organization scale the unit of optimization
//! is a *fleet*: hundreds-to-thousands of concurrent training jobs —
//! hyperparameter sweeps, production retrains, ad-hoc experiments —
//! competing for the same markets and the same reliable tier. This
//! crate schedules that fleet:
//!
//! - [`FleetSim`] — admission control, weighted-fair
//!   priority tiers with aging (low tiers can be delayed, never
//!   starved), **gang acquisition** (a job's minimum worker set acquires
//!   atomically or queues whole — never a half-launched, money-bleeding
//!   gang), and **global** Eq. 4 ranking across jobs with value-ordered
//!   preemption of low-value preemptible gangs.
//! - [`ReliablePool`] — bin-packs every job's
//!   reliable (parameter-server) slots onto shared on-demand machines,
//!   amortizing the reliable tier the paper pays per job.
//! - [`sweep`] — a SpotTune-style hyperparameter sweep driver:
//!   asynchronous successive halving over fleet trials, early-killing
//!   laggards and losers, promoting the winner into a real
//!   [`proteus::Proteus`] training session.
//!
//! Determinism is load-bearing throughout: market fault draws come from
//! per-tenant seed-split streams ([`proteus_market::TenantId`]), Eq. 4
//! evaluations fan out over the study executor and return in index
//! order, and all mutation is serial — so a fleet outcome is
//! bit-identical for any `PROTEUS_THREADS` setting.

// Scheduler code returns typed outcomes, never panics; any retained
// expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod binpack;
pub mod job;
pub mod scheduler;
pub mod sim;
pub mod sweep;

pub use binpack::ReliablePool;
pub use job::{FleetJobSpec, JobId, JobState, JobSummary};
pub use scheduler::{FairnessConfig, RankEntry};
pub use sim::{FleetConfig, FleetOutcome, FleetSim, FleetTiming};
pub use sweep::{
    promote_winner, run_sweep, run_sweep_on, RungCutoff, SweepConfig, SweepOutcome, TrialResult,
};
