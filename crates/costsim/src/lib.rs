//! End-to-end cost/runtime simulation of elastic ML training schemes on
//! a dynamic spot market (paper Sec. 6.3).
//!
//! The paper's headline cost results come from replaying months of AWS
//! spot price history under four configurations:
//!
//! * **all on-demand** — the traditional baseline (cost 100 %);
//! * **Standard + Checkpoint** — run entirely on spot instances acquired
//!   with the standard strategy (cheapest market, bid = on-demand
//!   price), checkpointing at an MTTF-derived frequency and restarting
//!   from the last checkpoint on eviction;
//! * **Standard + AgileML** — the same bidding, but elasticity handled
//!   by AgileML (no checkpoint overhead, cheap evictions);
//! * **Proteus** — AgileML plus BidBrain's cost-per-work bidding across
//!   every market, hour-end renewal decisions, and free-compute
//!   exploitation.
//!
//! [`run_job`] executes one job under one scheme against the
//! (synthetic) price traces via the full [`proteus_market`] billing
//! engine and [`proteus_bidbrain`] policy code; [`run_study`] aggregates
//! across many random start times exactly like the paper's methodology
//! (1000 random day/time starting points, cost normalized to the
//! on-demand baseline, final partial billing hours not charged to the
//! job).

// Study/simulation code returns typed outcomes, never panics; any
// retained expect documents a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]

mod executor;
#[cfg(test)]
mod gce;
mod scheme;
mod sim;
mod study;

pub use executor::StudyExecutor;
pub use scheme::{JobSpec, Scheme, SchemeKind};
pub use sim::{run_job, run_job_queue, QueueOutcome, SimOutcome};
pub use study::{run_study, run_study_with, StudyConfig, StudyEnv, StudyResult};
