//! The contract between an ML application and the training runtime.

use proteus_ps::{DenseVec, ParamKey, WorkerCache};
use rand::rngs::StdRng;

/// A read-only view of the current parameter state, supplied by whichever
/// runtime is executing the application (the sequential trainer, an
/// AgileML worker's cache, or a model snapshot).
pub trait ParamReader {
    /// The current row of `key` — zeros of the app's
    /// [`value_dim`](MlApp::value_dim) if the runtime holds no value for
    /// it yet.
    fn row(&self, key: ParamKey) -> &[f32];
}

/// Both runtimes keep parameters in a worker cache whose rows were
/// reserved at the app's dimensions, which is what makes an unrefreshed
/// row read as zeros.
impl ParamReader for WorkerCache {
    fn row(&self, key: ParamKey) -> &[f32] {
        WorkerCache::row(self, key)
    }
}

/// An iterative-convergent ML application runnable by Proteus.
///
/// Solution state lives entirely in the parameter server (the paper's
/// stateless-worker design, Sec. 7); each datum may carry mutable
/// *scratch* state (e.g. LDA's per-token topic assignments) that is cheap
/// to reconstruct when a data partition is re-loaded after an eviction.
pub trait MlApp: Send + Sync + 'static {
    /// One training item. `Sync` because the full dataset is shared
    /// (read-only, like S3) across node threads; workers mutate only
    /// their loaded copies.
    type Datum: Clone + Send + Sync + 'static;

    /// Reusable buffers for [`process`](MlApp::process): one per
    /// executing runtime, carrying no meaning from one datum to the next,
    /// so steady-state processing need not allocate.
    type Scratch: Default + Send + 'static;

    /// Total number of parameter keys used by the model.
    fn key_count(&self) -> u64;

    /// The dimension of the value stored under `key`.
    fn value_dim(&self, key: ParamKey) -> usize;

    /// The initial value for `key` (called once at job start).
    fn init_value(&self, key: ParamKey, rng: &mut StdRng) -> DenseVec;

    /// The parameter keys needed to process `datum`.
    fn keys_for(&self, datum: &Self::Datum) -> Vec<ParamKey>;

    /// Processes one datum against the current parameters, adding its
    /// (commutative, additive) updates to `params` in place: reads see
    /// every delta added so far, and the cache buffers the deltas for
    /// write-back. Both runtimes keep their parameters in a
    /// [`WorkerCache`], so the call is static and the app's steps inline
    /// into the cache's loops.
    ///
    /// `rng` supplies any sampling the algorithm needs (Gibbs sampling,
    /// dropout, ...); `datum` is mutable for per-datum scratch state.
    fn process(
        &self,
        datum: &mut Self::Datum,
        scratch: &mut Self::Scratch,
        params: &mut WorkerCache,
        rng: &mut StdRng,
    );

    /// The goodness-of-solution objective over a dataset — *lower is
    /// better* for every bundled app (loss or negative log-likelihood).
    fn objective(&self, data: &[Self::Datum], params: &dyn ParamReader) -> f64;
}
