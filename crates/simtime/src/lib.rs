//! Simulated time primitives shared by every Proteus simulator.
//!
//! All of the market, billing, and cost simulations in this workspace run in
//! *simulated* time so that months of spot-market history can be replayed in
//! milliseconds and so that every experiment is deterministic under a fixed
//! seed. This crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — millisecond-resolution instants and
//!   spans with convenient hour/minute accessors (EC2 billing is hourly, so
//!   hour arithmetic is pervasive).
//! * [`EventQueue`] — a stable discrete-event priority queue.
//! * [`rng`] — seeded RNG construction helpers so that independent
//!   subsystems can derive decorrelated-but-reproducible random streams.
//! * [`Pool`] — the persistent helper-thread pool that cost studies and
//!   the discrete-event network core fan deterministic work out on.

// Time primitives sit under every simulator loop; they return typed
// values, never panic; any retained expect documents a real invariant
// at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![deny(unsafe_code)]

mod event;
#[allow(
    unsafe_code,
    reason = "parked helpers run a submitter's borrowed closure: its lifetime is erased, and `DrainPtr` is `Send`"
)]
mod pool;
pub mod rng;
mod time;

pub use event::EventQueue;
pub use pool::Pool;
pub use time::{SimDuration, SimTime};
