//! Deterministic, sim-time-native observability for the Proteus
//! reproduction: typed events, a metrics registry, and queryable
//! timelines (paper Figs. 1, 9, 10 and the Eq. 4 decision trail).
//!
//! Every record is keyed to [`SimTime`](proteus_simtime::SimTime), never
//! the wall clock, so two runs with the same seed produce *byte-identical*
//! timelines regardless of thread count or host speed. The subsystem is
//! strictly passive: recording never feeds back into any decision or RNG
//! draw, so a run with a recorder attached computes exactly what the same
//! run computes without one.
//!
//! # Architecture
//!
//! - [`Event`] — one typed enum per subsystem ([`MarketEvent`],
//!   [`BidEvent`], [`AgileEvent`], [`SessionEvent`], [`CostEvent`]),
//!   primitive-only payloads so the JSONL schema is stable.
//! - [`Recorder`] — the shared sink: an append-only event log plus a
//!   metrics registry (counters, sim-time-weighted gauges/histograms,
//!   span timings) behind one cheap mutex, and an embedded sim clock for
//!   components that cannot thread a `SimTime` through their call path.
//! - [`Timeline`] — an owned snapshot queryable from tests, replacing
//!   brittle stdout assertions.
//! - [`jsonl`] — a hand-rolled JSONL exporter; `PROTEUS_OBS_OUT` names
//!   the export file.
//!
//! # Zero cost when off
//!
//! Components hold `Option<Arc<Recorder>>` and guard every emission with
//! `if let Some(rec) = …` — event construction lives *inside* the guard,
//! so the disabled path is a single branch with no allocation and
//! fault-free benches stay bit-identical.

// Observability must never panic a run it is passively watching; any
// retained expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod event;
pub mod jsonl;
pub mod metrics;
pub mod recorder;
pub mod timeline;

pub use event::{AgileEvent, BidEvent, CostEvent, Event, FleetEvent, MarketEvent, SessionEvent};
pub use metrics::{MetricsSnapshot, SpanStats, TimeWeightedHist};
pub use recorder::Recorder;
pub use timeline::{TimedEvent, Timeline};

/// Environment variable naming the JSONL export file for study/session
/// timelines. Unset means "do not export".
pub const OBS_OUT_ENV: &str = "PROTEUS_OBS_OUT";

/// A new recorder behind an [`Arc`](std::sync::Arc), ready to hand to
/// several subsystems at once.
pub fn shared() -> std::sync::Arc<Recorder> {
    std::sync::Arc::new(Recorder::new())
}
