//! End-to-end and per-layer benchmark of the Proteus reproduction.
//!
//! Seven workloads drive the crates through their public functions
//! only — an AgileML job directly, whole `Proteus` sessions, the cost
//! study, a fleet sweep — and report four end-to-end metrics each; a
//! traced pass wraps a span around every call and runs per-layer
//! probes. `README.md` beside this crate has the tables; `spec` is the
//! contract `BENCHMARK.json` is rendered from.

pub mod compare;
pub mod driver;
pub mod inputs;
pub mod json;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
