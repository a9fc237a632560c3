//! Deterministic, sim-time-native observability for the Proteus
//! reproduction: typed events, the folds that count them, and queryable
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
//!   [`BidEvent`], [`AgileEvent`], [`SessionEvent`], [`CostEvent`],
//!   [`FleetEvent`]), primitive-only payloads so the JSONL schema is
//!   stable. One table declares them all: a kind's string, JSONL keys
//!   and fields are its one entry.
//! - [`Recorder`] — the shared sink: an append-only event log and a few
//!   named counters behind one cheap mutex, and an embedded sim clock
//!   for components that cannot thread a `SimTime` through their call
//!   path.
//! - [`Timeline`] — an owned snapshot queryable from tests, replacing
//!   brittle stdout assertions.
//! - JSONL export ([`Recorder::to_jsonl`]), hand-rolled;
//!   `PROTEUS_OBS_OUT` ([`export_path`]) names the export file.
//!
//! # Counted once: folds always, the recorder when attached
//!
//! Each happening is emitted once. A loop's one `emit` applies the event
//! to the loop's report fold — a small struct whose single `apply` match
//! is the one place a happening maps to a report field — and then, if a
//! recorder is attached, mirrors the same event onto it. The folds run
//! whether or not anything records. The provider's `MarketTally` counts
//! grants, refusals, throttles, evictions and fault activity; the
//! session's fold counts the rest of its report. Nothing else counts
//! what an event records. Folds retain nothing: a run keeps no event log
//! of its own.
//!
//! The recorder is the optional mirror. Components hold
//! `Option<Arc<Recorder>>`, and the mirror costs one branch when it is
//! `None`. Emitters that carry market names keep them typed until the
//! mirror (`MarketKey::interned_name` takes a process-wide lock), so
//! the always-on path never interns a name.
//!
//! Trail events no fold reads stay recorder-only and are built inside
//! the recorder guard: `market.price_move`, `market.hour_charged`,
//! `bid.candidate`, `bid.evaluated` and `costsim.sample`.

// Observability must never panic a run it is passively watching; any
// retained expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod jsonl;
mod recorder;
mod timeline;

pub use event::{AgileEvent, BidEvent, CostEvent, Event, FleetEvent, MarketEvent, SessionEvent};
pub use jsonl::export_path;
pub use recorder::{Recorder, Unshared};
pub use timeline::{TimedEvent, Timeline};

/// Environment variable naming the JSONL export file for study/session
/// timelines. Unset means "do not export".
pub const OBS_OUT_ENV: &str = "PROTEUS_OBS_OUT";
