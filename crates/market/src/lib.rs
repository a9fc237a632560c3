//! A simulated dynamic resource market with EC2 spot semantics.
//!
//! The Proteus paper (EuroSys 2017) exploits Amazon EC2's spot market:
//! machines rent at a steep discount but can be revoked whenever the
//! market price rises above the customer's bid. This crate reproduces the
//! market *mechanisms* BidBrain reasons about (Sec. 2.2 of the paper):
//!
//! * customers bid per instance type and zone; they pay the **market**
//!   price, not their bid;
//! * billing is at hourly granularity, with the price fixed at the start of
//!   each billing hour;
//! * if the market price rises above the bid, the instances are revoked
//!   after a two-minute warning and the current partial hour is refunded
//!   ("free compute");
//! * voluntary termination forfeits the remainder of the paid hour;
//! * a bid cannot be changed once the resource is granted.
//!
//! Since real 2016 AWS price traces are unavailable offline, the
//! [`TraceGenerator`] synthesizes price traces with the qualitative character
//! of the paper's Fig. 3 — long stretches of cheap, mildly-jittering prices
//! punctuated by sharp spikes above the on-demand price — and the
//! [`PriceTrace`] also supports fully scripted traces for tests.
//!
//! [`GceMarket`] models Google Compute Engine preemptible instances (fixed 70 %
//! discount, Poisson preemptions) to demonstrate that the allocation
//! machinery is not EC2-specific.
//!
//! A [`MarketFaultPlan`] adds seed-deterministic provider-side fault
//! regimes (capacity droughts, API throttling, boot delays, infant
//! mortality); all are off by default.

// Fault- and refusal-reachable paths must return typed errors; the few
// retained `expect`s document real invariants at their use sites.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]

mod billing;
mod error;
mod fault;
mod gce;
mod gen;
mod instance;
mod provider;
mod spot;
mod tally;
mod trace;

pub use billing::{BillingAccount, LedgerEntry, LedgerKind, UsageBreakdown};
pub use error::MarketError;
pub use fault::{
    BootDelayRule, CapacityRule, InfantMortalityRule, MarketFaultPlan, TenantId, ThrottleRule,
};
pub use gce::{GceMarket, PreemptionModel, GCE_DISCOUNT};
pub use gen::{MarketModel, TraceGenerator};
pub use instance::{catalog, InstanceType, MarketKey, Zone};
pub use provider::{AllocationId, CloudProvider, ProviderEvent, SpotGrant};
pub use spot::{SpotAllocation, SpotState};
pub use tally::MarketTally;
pub use trace::{PriceTrace, TraceSet};

use proteus_simtime::SimDuration;

/// Warning lead time EC2 has provided before spot revocations since 2015.
pub const EC2_EVICTION_WARNING: SimDuration = SimDuration::from_secs(120);
