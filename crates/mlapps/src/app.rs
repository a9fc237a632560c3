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
/// stateless-worker design, Sec. 7), and the data are read-only: every
/// runtime reads its runs of data where they already are (a worker its
/// block ranges of the job's one shared dataset, like S3). What an app
/// keeps from one pass over a run to the next (e.g. LDA's per-token
/// topic assignments) is its [`RunState`](MlApp::RunState), which the
/// runtime keeps beside the run and which starts fresh whenever the run
/// is loaded again after an eviction.
pub trait MlApp: Send + Sync + 'static {
    /// One training item. `Sync` because the full dataset is shared
    /// (read-only, like S3) across node threads.
    type Datum: Clone + Send + Sync + 'static;

    /// What the app keeps beside one run of data from pass to pass: the
    /// runtime holds one per run, for as long as it holds that run, and
    /// passes it on every pass. `Default` is a fresh state, the one a
    /// never-processed run has.
    type RunState: Default + Send + 'static;

    /// Reusable buffers for [`process`](MlApp::process): one per
    /// executing runtime, carrying no meaning from one call to the next,
    /// so steady-state processing need not allocate.
    type Scratch: Default + Send + 'static;

    /// Total number of parameter keys used by the model: its keys are
    /// `0..key_count`, the runtime's one key space.
    fn key_count(&self) -> u64;

    /// The dimension of the value stored under `key`.
    fn value_dim(&self, key: ParamKey) -> usize;

    /// The initial value for `key` (called once at job start).
    fn init_value(&self, key: ParamKey, rng: &mut StdRng) -> DenseVec;

    /// The parameter keys needed to process `datum`, each below
    /// [`key_count`](MlApp::key_count).
    fn keys_for(&self, datum: &Self::Datum) -> Vec<ParamKey>;

    /// Processes a run of data in order against the current parameters,
    /// adding each datum's (commutative, additive) updates to `params` in
    /// place: reads see every delta added so far, and the cache buffers
    /// the deltas for write-back. Both runtimes call it once per data
    /// block, and keep their parameters in a [`WorkerCache`], so the
    /// call is static and the app's steps inline into the cache's loops.
    ///
    /// The result must equal processing the data one at a time, in
    /// order, bit for bit: a run is the unit an app may pipeline across
    /// (MLR computes one example's logits inside the previous example's
    /// step), never a reordering.
    ///
    /// `state` is the run's own [`RunState`](MlApp::RunState): MF
    /// resolves the rows its steps read into it
    /// ([`WorkerCache::resolve_pairs`]) and reads them from there, LDA
    /// keeps its topic assignments and document-topic histograms in it,
    /// MLR and K-means keep nothing. `rng` supplies any sampling the
    /// algorithm needs (Gibbs sampling, dropout, ...).
    fn process(
        &self,
        data: &[Self::Datum],
        state: &mut Self::RunState,
        scratch: &mut Self::Scratch,
        params: &mut WorkerCache,
        rng: &mut StdRng,
    );

    /// The goodness-of-solution objective over a run of data with its
    /// `state` (a fresh one for data no pass has processed) — *lower is
    /// better* for every bundled app (loss or negative log-likelihood).
    fn objective(
        &self,
        data: &[Self::Datum],
        state: &Self::RunState,
        params: &dyn ParamReader,
    ) -> f64;
}
