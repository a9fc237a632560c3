//! Parallel fan-out of independent study job runs.
//!
//! A paper-scale study (Sec. 6.3: 1000 random starts × 4 schemes) is
//! embarrassingly parallel: every `run_job` is a pure function of the
//! shared trace set, β estimator, scheme, and start time. The executor
//! is the workspace's persistent helper pool under the name studies
//! know it by: tasks fan out across parked threads and each result lands
//! in a slot keyed by task index, so aggregation order — and therefore
//! every floating-point sum — is identical to the serial loop regardless
//! of thread count.

/// A `Copy` thread-count handle for index-addressed task fan-out:
/// `new` / `serial` / `from_env` / `threads` / `run_indexed`.
pub type StudyExecutor = proteus_simtime::Pool;
