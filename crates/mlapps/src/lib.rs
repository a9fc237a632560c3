//! The three iterative-convergent ML applications the paper evaluates,
//! plus synthetic datasets and a sequential reference trainer.
//!
//! Sec. 6.2 of the Proteus paper benchmarks:
//!
//! * **Matrix Factorization (MF)** — collaborative filtering via SGD on
//!   the Netflix rating matrix;
//! * **Multinomial Logistic Regression (MLR)** — multi-way classification
//!   via softmax SGD on ImageNet LLC features;
//! * **Latent Dirichlet Allocation (LDA)** — topic modelling via collapsed
//!   Gibbs sampling on the NYTimes corpus.
//!
//! The original datasets are not redistributable, so [`data`] synthesizes
//! corpora with the same statistical structure at laptop scale (documented
//! substitution in `DESIGN.md`). Each application implements the
//! [`MlApp`] contract consumed by AgileML's workers: stateless with
//! respect to *solution* state (which lives in the parameter server), and
//! reading the data in place, with what an app keeps between passes
//! (LDA's topic assignments) in a per-run state beside the data, which a
//! re-loaded data partition starts afresh.
//!
//! [`train::SequentialTrainer`] runs any `MlApp` single-threaded against a
//! plain [`ShardStore`](proteus_ps::ShardStore) — the convergence oracle
//! the distributed runtime is validated against.

// Application code returns typed errors or totals-ordered comparisons;
// any retained expect must document a real invariant at its use site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]

pub mod app;
pub mod data;
mod kmeans;
pub mod lda;
pub mod mf;
pub mod mlr;
pub mod train;

pub use app::MlApp;
pub use kmeans::{KMeans, KmConfig, Point};
pub use lda::{Lda, LdaConfig, LdaDoc, LdaRun};
pub use mf::{MatrixFactorization, MfConfig, Rating};
pub use mlr::{Example, Mlr, MlrConfig};
pub use train::SequentialTrainer;
