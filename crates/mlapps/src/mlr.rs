//! Multinomial logistic regression via softmax SGD.
//!
//! Models the probability that a `d`-dimensional observation belongs to
//! each of `K` classes with a softmax over per-class weight vectors
//! (the paper trains this as the last layer of image/text classifiers).
//! The weight vectors are the model parameters: key `k` holds `w_k`, and
//! every gradient step updates the **full model** — all `K` vectors — as
//! in the paper's MLR setup, which is what makes MLR network-heavy.

use proteus_ps::{kernels, DenseVec, ParamKey, WorkerCache};
use rand::rngs::StdRng;
use rand::Rng;

use crate::app::{MlApp, ParamReader};

/// One labelled observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Dense feature vector of dimension `MlrConfig::dim`.
    pub features: Vec<f32>,
    /// True class in `0..MlrConfig::classes`.
    pub label: u32,
}

/// Configuration for [`Mlr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlrConfig {
    /// Feature dimension `d`.
    pub dim: usize,
    /// Number of classes `K`.
    pub classes: u32,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// L2 regularization coefficient.
    pub reg: f32,
}

impl Default for MlrConfig {
    fn default() -> Self {
        MlrConfig {
            dim: 16,
            classes: 4,
            learning_rate: 0.05,
            reg: 1e-4,
        }
    }
}

/// The MLR application.
#[derive(Debug, Clone)]
pub struct Mlr {
    config: MlrConfig,
}

impl Mlr {
    /// Creates an MLR app with the given configuration.
    pub fn new(config: MlrConfig) -> Self {
        Mlr { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MlrConfig {
        &self.config
    }

    /// Class probabilities for one example under the given parameters.
    pub fn softmax(&self, features: &[f32], params: &dyn ParamReader) -> Vec<f64> {
        let mut probs = Vec::new();
        self.softmax_into(features, params, &mut probs);
        probs
    }

    /// [`Mlr::softmax`] into a caller-owned buffer.
    fn softmax_into(&self, features: &[f32], params: &dyn ParamReader, probs: &mut Vec<f64>) {
        probs.clear();
        probs.extend((0..self.config.classes).map(|k| {
            let w = params.row(ParamKey(u64::from(k)));
            f64::from(kernels::dot(w, features))
        }));
        let max = probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for p in probs.iter_mut() {
            *p = (*p - max).exp();
        }
        let sum: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= sum;
        }
    }

    /// The predicted class (argmax probability).
    pub fn predict(&self, features: &[f32], params: &dyn ParamReader) -> u32 {
        let probs = self.softmax(features, params);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, _)| k as u32)
            .unwrap_or(0)
    }
}

impl MlApp for Mlr {
    type Datum = Example;
    /// The class probabilities of the datum in hand.
    type Scratch = Vec<f64>;

    fn key_count(&self) -> u64 {
        u64::from(self.config.classes)
    }

    fn value_dim(&self, _key: ParamKey) -> usize {
        self.config.dim
    }

    fn init_value(&self, _key: ParamKey, rng: &mut StdRng) -> DenseVec {
        DenseVec::from(
            (0..self.config.dim)
                .map(|_| rng.gen_range(-0.01..0.01))
                .collect::<Vec<f32>>(),
        )
    }

    fn keys_for(&self, _datum: &Example) -> Vec<ParamKey> {
        (0..u64::from(self.config.classes)).map(ParamKey).collect()
    }

    fn process(
        &self,
        datum: &mut Example,
        probs: &mut Vec<f64>,
        params: &mut WorkerCache,
        _rng: &mut StdRng,
    ) {
        self.softmax_into(&datum.features, &*params, probs);
        let lr = self.config.learning_rate;
        let reg = self.config.reg;
        for k in 0..self.config.classes {
            let indicator = if k == datum.label { 1.0 } else { 0.0 };
            // Gradient of cross-entropy: (p_k − 1{k=y}) x + reg·w_k,
            // scaled by −lr. Each step reads only its own w_k, so the
            // in-place order cannot matter.
            let coeff = (probs[k as usize] as f32) - indicator;
            params.add_lincomb(
                ParamKey(u64::from(k)),
                -lr * coeff,
                &datum.features,
                -lr * reg,
            );
        }
    }

    fn objective(&self, data: &[Example], params: &dyn ParamReader) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut probs = Vec::new();
        let nll: f64 = data
            .iter()
            .map(|e| {
                self.softmax_into(&e.features, params, &mut probs);
                -(probs[e.label as usize].max(1e-12)).ln()
            })
            .sum();
        nll / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_ps::{PartitionMap, WorkerCache};
    use proteus_simtime::rng::seeded;

    /// Parameters at the app's seeded initial values.
    fn init_params(app: &Mlr, seed: u64) -> WorkerCache {
        let mut rng = seeded(seed);
        let mut params = WorkerCache::new(PartitionMap::new(1).expect("nonzero"));
        for k in (0..app.key_count()).map(ParamKey) {
            params.refresh(k, app.init_value(k, &mut rng).as_slice());
        }
        params
    }

    fn two_blob_data() -> Vec<Example> {
        // Two linearly separable blobs in 2-D.
        vec![
            Example {
                features: vec![1.0, 0.1],
                label: 0,
            },
            Example {
                features: vec![0.9, -0.1],
                label: 0,
            },
            Example {
                features: vec![1.1, 0.0],
                label: 0,
            },
            Example {
                features: vec![-1.0, 0.1],
                label: 1,
            },
            Example {
                features: vec![-0.9, -0.2],
                label: 1,
            },
            Example {
                features: vec![-1.1, 0.05],
                label: 1,
            },
        ]
    }

    #[test]
    fn softmax_sums_to_one() {
        let app = Mlr::new(MlrConfig {
            dim: 2,
            classes: 3,
            ..MlrConfig::default()
        });
        let p = app.softmax(&[0.3, -0.7], &init_params(&app, 1));
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sgd_separates_two_blobs() {
        let app = Mlr::new(MlrConfig {
            dim: 2,
            classes: 2,
            learning_rate: 0.5,
            reg: 0.0,
        });
        let mut rng = seeded(3);
        let mut params = init_params(&app, 3);
        let mut data = two_blob_data();
        let mut probs = Vec::new();
        for _ in 0..50 {
            for datum in &mut data {
                app.process(datum, &mut probs, &mut params, &mut rng);
            }
        }
        for e in &data {
            assert_eq!(app.predict(&e.features, &params), e.label);
        }
        assert!(app.objective(&data, &params) < 0.2);
    }

    #[test]
    fn every_datum_touches_full_model() {
        let app = Mlr::new(MlrConfig {
            dim: 4,
            classes: 7,
            ..MlrConfig::default()
        });
        let e = Example {
            features: vec![0.0; 4],
            label: 3,
        };
        assert_eq!(app.keys_for(&e).len(), 7);
        assert_eq!(app.key_count(), 7);
    }

    #[test]
    fn objective_decreases_under_training() {
        let app = Mlr::new(MlrConfig {
            dim: 2,
            classes: 2,
            learning_rate: 0.3,
            reg: 0.0,
        });
        let mut rng = seeded(4);
        let mut params = init_params(&app, 4);
        let mut data = two_blob_data();
        let before = app.objective(&data, &params);
        let mut probs = Vec::new();
        for _ in 0..20 {
            for datum in &mut data {
                app.process(datum, &mut probs, &mut params, &mut rng);
            }
        }
        let after = app.objective(&data, &params);
        assert!(
            after < before,
            "training should reduce loss: {after} >= {before}"
        );
    }
}
