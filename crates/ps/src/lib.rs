//! Parameter-server building blocks.
//!
//! Modern ML training frameworks share model state through a *parameter
//! server*: a specialized key-value store sharded across machines, with a
//! worker-side library that caches values and write-back buffers updates
//! (Sec. 2.1 of the Proteus paper). Values must be serializable and carry a
//! commutative, associative aggregation function so updates from different
//! workers can be applied in any order — for the paper's applications the
//! values are vectors and the aggregation is component-wise addition.
//!
//! This crate provides those building blocks free of any networking:
//!
//! * [`DenseVec`] — the dense parameter row every bundled application
//!   uses;
//! * [`PartitionMap`] — the fixed-`N`-partition key layout AgileML uses so
//!   elasticity re-assigns *partitions* instead of re-sharding keys;
//! * [`ShardStore`] — one server shard's state in flat per-partition
//!   slabs, with partition-granular export/import for migration and
//!   backup;
//! * [`ClockTable`] — Stale-Synchronous-Parallel progress tracking;
//! * [`cache::WorkerCache`] — the worker-side cache with write-back
//!   update buffering;
//! * [`Values`] / [`KeySet`] — the flat, shared payload buffer and the
//!   compressed key-range set the batched data plane ships (the messages
//!   carrying them are AgileML's);
//! * [`kernels`] — explicit-width chunked slice kernels (the hot loops
//!   behind [`DenseVec`] and the ML apps), with AVX2 twins picked at
//!   run time and bit-identical to the portable loops;
//! * [`encode_model`] / [`decode_model`] — the durable, bit-exact
//!   checkpoint encoding of a full parameter map (used by session-level
//!   restart-from-checkpoint).
//!
//! The elastic tiering logic (ActivePS/BackupPS, stages, recovery) lives
//! one layer up in `proteus-agileml`; everything here is deliberately
//! mechanism-only so it can be property-tested in isolation.

// Storage primitives return typed errors, never panic; any retained
// expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![deny(unsafe_code)]

mod cache;
mod clock;
#[allow(
    unsafe_code,
    reason = "the AVX2 twins: a call after runtime feature detection, and their unaligned load and store"
)]
pub mod kernels;
mod keyset;
mod partition;
mod shard;
mod snapshot;
mod value;
mod values;

pub use cache::{RowPos, RunRows, WorkerCache};
pub use clock::ClockTable;
pub use keyset::KeySet;
pub use partition::{ParamKey, PartitionId, PartitionMap};
pub use shard::{KeyedRow, RowRef, ShardStore};
pub use snapshot::{decode_model, encode_model, SnapshotError};
pub use value::DenseVec;
pub use values::{Values, ValuesIter};
