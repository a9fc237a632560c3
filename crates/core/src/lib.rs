//! # Proteus
//!
//! A reproduction of *Proteus: agile ML elasticity through tiered
//! reliability in dynamic resource markets* (EuroSys 2017).
//!
//! Proteus trains ML models faster and cheaper by aggressively exploiting
//! cheap, revocable **transient** machines (EC2 spot instances) alongside
//! a small **reliable** tier (on-demand instances). It combines:
//!
//! * [`proteus_agileml`] — **AgileML**, an elastic parameter-server
//!   framework with three stages of functionality partitioning over
//!   reliability tiers: solution state always survives on reliable
//!   machines while transient machines carry the compute and (at high
//!   ratios) the active parameter serving;
//! * [`proteus_bidbrain`] — **BidBrain**, a resource-allocation policy
//!   that minimizes expected cost per unit work across multiple spot
//!   markets, pricing in eviction probabilities and free-compute
//!   refunds.
//!
//! This crate is the facade (the paper's Sec. 5 architecture): the
//! [`Proteus`] session wires BidBrain's decisions to a simulated cloud
//! provider and forwards grants, eviction warnings, and revocations to
//! AgileML's elasticity controller, while a *real* distributed training
//! job (message-passing machines on a deterministic event queue) runs
//! under the churn.
//!
//! ## Quickstart
//!
//! ```no_run
//! use proteus::{Proteus, ProteusConfig};
//! use proteus_mlapps::data::{netflix_like, MfDataConfig};
//! use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
//!
//! let data = netflix_like(&MfDataConfig::default(), 42);
//! let app = MatrixFactorization::new(MfConfig::default());
//! let mut session = Proteus::launch(app, data, ProteusConfig::default()).unwrap();
//! session.run_market_hours(2.0).unwrap();
//! let report = session.finish().unwrap();
//! println!("cost ${:.2}, objective {:.4}", report.cost, report.final_objective);
//! ```

// Fault- and refusal-reachable paths must return typed errors; any
// retained `expect` must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]

mod checkpoint;
mod config;
mod error;
mod report;
mod session;

pub use config::ProteusConfig;
pub use error::ProteusError;
pub use report::ProteusReport;
pub use session::{Proteus, ReliableRecovery};

// Re-export the component crates under their paper names.
pub use proteus_agileml as agileml;
pub use proteus_bidbrain as bidbrain;
pub use proteus_costsim as costsim;
pub use proteus_market as market;
pub use proteus_mlapps as mlapps;
pub use proteus_obs as obs;
pub use proteus_perfmodel as perfmodel;
pub use proteus_ps as ps;
pub use proteus_simnet as simnet;
pub use proteus_simtime as simtime;
