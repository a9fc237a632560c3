//! A sequential reference trainer.
//!
//! Runs any [`MlApp`] single-threaded over one in-memory copy of the
//! model, with no networking, elasticity, or staleness. This is the
//! convergence oracle: the distributed AgileML runtime is validated by
//! showing it reaches comparable objective values on the same data and
//! seeds.

use proteus_ps::{ParamKey, PartitionMap, RunRows, WorkerCache};
use proteus_simtime::rng::seeded_stream;
use rand::rngs::StdRng;

use crate::app::{MlApp, ParamReader};

/// Single-threaded trainer over an in-memory model.
pub struct SequentialTrainer<A: MlApp> {
    app: A,
    /// The model, in the row store the distributed workers use (so both
    /// runtimes run the same in-place `process`). Its write-back buffer
    /// has no server to go to and is simply never flushed.
    params: WorkerCache,
    data: Vec<A::Datum>,
    /// The data's rows in `params`, resolved by the first pass.
    rows: RunRows,
    scratch: A::Scratch,
    rng: StdRng,
}

impl<A: MlApp> SequentialTrainer<A> {
    /// Creates a trainer, initializing every parameter with the app's
    /// initializer under a seed-derived RNG.
    pub fn new(app: A, data: Vec<A::Datum>, seed: u64) -> Self {
        // One partition is always a valid layout (only zero is rejected).
        #[allow(clippy::expect_used)]
        let layout = PartitionMap::new(1).expect("one partition is valid");
        let mut params = WorkerCache::new(layout);
        let mut init_rng = seeded_stream(seed, 1);
        for k in 0..app.key_count() {
            let key = ParamKey(k);
            params.refresh(key, app.init_value(key, &mut init_rng).as_slice());
        }
        SequentialTrainer {
            app,
            params,
            data,
            rows: RunRows::default(),
            scratch: A::Scratch::default(),
            rng: seeded_stream(seed, 2),
        }
    }

    /// Runs one full pass over the data.
    pub fn run_iteration(&mut self) {
        self.app.process(
            &mut self.data,
            &mut self.rows,
            &mut self.scratch,
            &mut self.params,
            &mut self.rng,
        );
    }

    /// Runs `n` passes over the data.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.run_iteration();
        }
    }

    /// The current objective value over the training data.
    pub fn objective(&self) -> f64 {
        self.app.objective(&self.data, &self.params)
    }

    /// The current model (diagnostics/tests).
    pub fn params(&self) -> &dyn ParamReader {
        &self.params
    }

    /// The application being trained.
    pub fn app(&self) -> &A {
        &self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{
        imagenet_like, netflix_like, nytimes_like, LdaDataConfig, MfDataConfig, MlrDataConfig,
    };
    use crate::lda::{Lda, LdaConfig};
    use crate::mf::{MatrixFactorization, MfConfig};
    use crate::mlr::{Mlr, MlrConfig};

    #[test]
    fn mf_converges_on_netflix_like_data() {
        let data_cfg = MfDataConfig {
            rows: 60,
            cols: 40,
            true_rank: 3,
            observed: 1500,
            noise: 0.02,
        };
        let data = netflix_like(&data_cfg, 42);
        let app = MatrixFactorization::new(MfConfig {
            rows: 60,
            cols: 40,
            rank: 6,
            learning_rate: 0.05,
            reg: 1e-4,
            init_scale: 0.2,
        });
        let mut t = SequentialTrainer::new(app, data, 42);
        let before = t.objective();
        t.run(30);
        let after = t.objective();
        assert!(after < before * 0.2, "MF should fit: {before} -> {after}");
        assert!(after < 0.05, "residual close to noise floor, got {after}");
    }

    #[test]
    fn mlr_converges_on_imagenet_like_data() {
        let data_cfg = MlrDataConfig {
            examples: 300,
            dim: 8,
            classes: 3,
            separation: 2.0,
            noise: 0.4,
        };
        let data = imagenet_like(&data_cfg, 7);
        let app = Mlr::new(MlrConfig {
            dim: 8,
            classes: 3,
            learning_rate: 0.1,
            reg: 1e-4,
        });
        let mut t = SequentialTrainer::new(app, data.clone(), 7);
        let before = t.objective();
        t.run(15);
        let after = t.objective();
        assert!(
            after < before * 0.5,
            "MLR should learn: {before} -> {after}"
        );
        // Accuracy check on the training set.
        let correct = data
            .iter()
            .filter(|e| t.app().predict(&e.features, t.params()) == e.label)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.9,
            "accuracy {correct}/{}",
            data.len()
        );
    }

    #[test]
    fn lda_converges_on_nytimes_like_data() {
        let data_cfg = LdaDataConfig {
            docs: 30,
            vocab: 60,
            true_topics: 3,
            doc_len: 30,
            topic_purity: 0.9,
        };
        let data = nytimes_like(&data_cfg, 9, 3);
        let app = Lda::new(LdaConfig {
            vocab: 60,
            topics: 3,
            alpha: 0.3,
            beta: 0.05,
        });
        let mut t = SequentialTrainer::new(app, data, 9);
        t.run(1);
        let early = t.objective();
        t.run(25);
        let late = t.objective();
        assert!(late < early, "LDA should improve: {early} -> {late}");
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let data = netflix_like(&MfDataConfig::default(), 5);
        let app = || MatrixFactorization::new(MfConfig::default());
        let mut a = SequentialTrainer::new(app(), data.clone(), 5);
        let mut b = SequentialTrainer::new(app(), data, 5);
        a.run(3);
        b.run(3);
        assert_eq!(a.objective(), b.objective());
        assert_eq!(a.params().row(ParamKey(0)), b.params().row(ParamKey(0)));
    }
}
