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
//! * [`PsValue`] / [`DenseVec`] — the value contract and the dense-vector
//!   instance every bundled application uses;
//! * [`PartitionMap`] — the fixed-`N`-partition key layout AgileML uses so
//!   elasticity re-assigns *partitions* instead of re-sharding keys;
//! * [`ShardStore`] — one server shard's state, with partition-granular
//!   export/import for migration and backup;
//! * [`ClockTable`] — Stale-Synchronous-Parallel progress tracking;
//! * [`cache::WorkerCache`] — the worker-side cache with write-back
//!   update buffering;
//! * [`Values`] / [`KeySet`] — the zero-copy shared payload buffer and
//!   the compressed key-range set the batched data plane ships (the
//!   messages carrying them are AgileML's);
//! * [`kernels`] — explicit-width chunked slice kernels (the
//!   autovectorized hot loops behind [`DenseVec`] and the ML apps);
//! * [`snapshot`] — the durable, bit-exact checkpoint encoding of a
//!   full parameter map (used by session-level restart-from-checkpoint).
//!
//! The elastic tiering logic (ActivePS/BackupPS, stages, recovery) lives
//! one layer up in `proteus-agileml`; everything here is deliberately
//! mechanism-only so it can be property-tested in isolation.

// Storage primitives return typed errors, never panic; any retained
// expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod clock;
pub mod kernels;
pub mod keyset;
pub mod partition;
pub mod shard;
pub mod snapshot;
pub mod value;
pub mod values;

pub use cache::WorkerCache;
pub use clock::ClockTable;
pub use keyset::KeySet;
pub use partition::{ParamKey, PartitionId, PartitionMap};
pub use shard::ShardStore;
pub use snapshot::{decode_model, encode_model, SnapshotError};
pub use value::{DenseVec, PsValue};
pub use values::Values;
