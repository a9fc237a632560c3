//! BidBrain — Proteus' resource-allocation component (paper Sec. 4).
//!
//! BidBrain tracks current and historical spot-market prices for multiple
//! instance types, and makes allocation decisions that minimize expected
//! **cost per unit work**:
//!
//! * it estimates the probability β that an allocation at a given *bid
//!   delta* (bid minus market price) is evicted within its billing hour,
//!   by replaying historical price traces ([`BetaEstimator`]);
//! * it computes the expected cost of a footprint with eviction refunds
//!   priced in (Eq. 1), the expected useful compute time net of eviction
//!   and scaling overheads (Eq. 2), the expected work (Eq. 3), and their
//!   ratio (Eq. 4) ([`BidBrain`]);
//! * it acquires a new allocation only when doing so lowers the
//!   footprint's expected cost-per-work, and terminates allocations
//!   before their next billing hour when renewal would raise it;
//! * "free compute" — work done in an hour that the provider later
//!   refunds on eviction — is explicitly part of the objective, which is
//!   why moderately aggressive bids beat both timid (never-evicted) and
//!   reckless (constantly-evicted) ones.
//!
//! [`StandardStrategy`] implements the baseline the paper compares against:
//! always pick the currently cheapest market and bid the on-demand price
//! (the EC2 Spot Fleet default policy).

// Decision paths must return typed values, never panic; any retained
// expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]

mod acquire;
mod beta;
mod forecast;
mod params;
mod policy;
mod standard;

pub use acquire::{Acquisition, MarketBackoff};
pub use beta::{BetaEstimator, BetaPoint, BetaTable};
pub use forecast::{EvictionAlert, ForecastConfig, PreemptionForecaster, FORECAST_HORIZON};
pub use params::{phi, AppParams};
pub use policy::{AllocView, AllocationRequest, BidBrain, BidBrainConfig, FootprintEval};
pub use standard::StandardStrategy;

use proteus_simtime::SimDuration;

/// BidBrain's decision cadence (Sec. 5: decisions "every two minutes
/// and just before billing hours end"). Every lifecycle loop steps by
/// it, and a holding whose hour has no more than this left is due for
/// its renewal decision ([`BidBrain::release_due`]).
pub const DECISION_STEP: SimDuration = SimDuration::from_secs(120);
