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

    /// Class probabilities for one example under the given parameters,
    /// into a caller-owned buffer.
    pub(crate) fn softmax_into(
        &self,
        features: &[f32],
        params: &dyn ParamReader,
        probs: &mut Vec<f64>,
    ) {
        self.logits_into(features, params, probs);
        normalize(probs);
    }

    /// The per-class logits `w_k · x` into a caller-owned buffer.
    /// Generic so that `process` reads the worker cache's rows by a
    /// static call.
    fn logits_into<R: ParamReader + ?Sized>(
        &self,
        features: &[f32],
        params: &R,
        logits: &mut Vec<f64>,
    ) {
        logits.clear();
        logits.extend((0..self.config.classes).map(|k| {
            let w = params.row(ParamKey(u64::from(k)));
            f64::from(kernels::dot(w, features))
        }));
    }
}

/// Turns logits into class probabilities, in place.
fn normalize(probs: &mut [f64]) {
    let max = probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for p in probs.iter_mut() {
        *p = (*p - max).exp();
    }
    let sum: f64 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

impl MlApp for Mlr {
    type Datum = Example;
    type RunState = ();
    /// The logits, then the class probabilities, of the example in hand.
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

    /// Software-pipelined: the step on `w_k` for example `i` also
    /// returns `w_k`'s logit for example `i + 1`, so each example reads
    /// each row once. Class `k`'s logit reads only `w_k`, and only after
    /// every earlier step on it, so this is the per-example loop's
    /// arithmetic in its order, bit for bit.
    fn process(
        &self,
        data: &[Example],
        _state: &mut (),
        probs: &mut Vec<f64>,
        params: &mut WorkerCache,
        _rng: &mut StdRng,
    ) {
        let Some(first) = data.first() else {
            return;
        };
        self.logits_into(&first.features, &*params, probs);
        let lr = self.config.learning_rate;
        let reg = self.config.reg;
        for (i, datum) in data.iter().enumerate() {
            normalize(probs);
            let next = data.get(i + 1).map(|e| e.features.as_slice());
            for k in 0..self.config.classes {
                let key = ParamKey(u64::from(k));
                let indicator = if k == datum.label { 1.0 } else { 0.0 };
                // Gradient of cross-entropy: (p_k − 1{k=y}) x + reg·w_k,
                // scaled by −lr. Each step reads only its own w_k, so the
                // in-place order cannot matter.
                let coeff = (probs[k as usize] as f32) - indicator;
                let (s, t) = (-lr * coeff, -lr * reg);
                match next {
                    Some(next) => {
                        let logit = params.add_lincomb_dot(key, s, &datum.features, t, next);
                        probs[k as usize] = f64::from(logit);
                    }
                    None => params.add_lincomb(key, s, &datum.features, t),
                }
            }
        }
    }

    fn objective(&self, data: &[Example], _state: &(), params: &dyn ParamReader) -> f64 {
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
    use crate::data::{imagenet_like, MlrDataConfig};
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

    /// Class probabilities for one example, in a buffer of their own.
    fn softmax(app: &Mlr, features: &[f32], params: &dyn ParamReader) -> Vec<f64> {
        let mut probs = Vec::new();
        app.softmax_into(features, params, &mut probs);
        probs
    }

    #[test]
    fn softmax_sums_to_one() {
        let app = Mlr::new(MlrConfig {
            dim: 2,
            classes: 3,
            ..MlrConfig::default()
        });
        let p = softmax(&app, &[0.3, -0.7], &init_params(&app, 1));
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
        let data = two_blob_data();
        let mut probs = Vec::new();
        for _ in 0..50 {
            app.process(&data, &mut (), &mut probs, &mut params, &mut rng);
        }
        for e in &data {
            // The label is the most probable class.
            let probs = softmax(&app, &e.features, &params);
            assert!(probs.iter().all(|&p| p <= probs[e.label as usize]));
        }
        assert!(app.objective(&data, &(), &params) < 0.2);
    }

    /// The per-example pass the run pass replaced, written out: the
    /// softmax of the rows as they stand, then one step per class.
    fn step_one(app: &Mlr, e: &Example, params: &mut WorkerCache) {
        let probs = softmax(app, &e.features, &*params);
        let MlrConfig {
            learning_rate: lr,
            reg,
            classes,
            ..
        } = app.config;
        for k in 0..classes {
            let indicator = if k == e.label { 1.0 } else { 0.0 };
            let coeff = (probs[k as usize] as f32) - indicator;
            params.add_lincomb(ParamKey(u64::from(k)), -lr * coeff, &e.features, -lr * reg);
        }
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// Every row of the model, as bits.
    fn rows_bits(app: &Mlr, params: &WorkerCache) -> Vec<Vec<u32>> {
        (0..app.key_count())
            .map(|k| bits(params.row(ParamKey(k))))
            .collect()
    }

    /// Flushes `params`: each flushed row's partition, key and bits, in
    /// the order the batches hold them.
    fn flushed_bits(params: &mut WorkerCache) -> Vec<(u32, u64, Vec<u32>)> {
        let flushed = params.flush();
        let rows = flushed
            .iter()
            .flat_map(|(p, batch)| batch.iter().map(|(k, row)| (p.0, k.0, bits(row))));
        rows.collect()
    }

    #[test]
    fn run_pass_equals_the_per_example_loop_bit_for_bit() {
        // Widths on both sides of the kernels' 64-float twin floor; rows
        // that start reserved (zeros, never refreshed) or refreshed; runs
        // that start on rows flushed, dirty or never stepped.
        for dim in [19, 75] {
            let (classes, examples) = (5, 40);
            let app = Mlr::new(MlrConfig {
                dim,
                classes,
                learning_rate: 0.1,
                reg: 1e-3,
            });
            let data = imagenet_like(
                &MlrDataConfig {
                    examples,
                    dim,
                    classes,
                    separation: 2.0,
                    noise: 0.4,
                },
                3,
            );
            for len in [0, 1, 2, examples] {
                for refreshed in [false, true] {
                    let start = || {
                        let mut params = init_params(&app, 5);
                        if !refreshed {
                            params.clear();
                            params.reserve((0..app.key_count()).map(|k| (ParamKey(k), dim)));
                        }
                        params
                    };
                    let (mut run, mut looped) = (start(), start());
                    let (mut probs, mut rng) = (Vec::new(), seeded(1));
                    for pass in 0..3 {
                        app.process(&data[..len], &mut (), &mut probs, &mut run, &mut rng);
                        for e in &data[..len] {
                            step_one(&app, e, &mut looped);
                        }
                        let case =
                            format!("dim {dim}, len {len}, refreshed {refreshed}, pass {pass}");
                        assert_eq!(rows_bits(&app, &run), rows_bits(&app, &looped), "{case}");
                        // No flush after the first pass: the second runs on
                        // dirty rows, the third on flushed ones.
                        if pass > 0 {
                            let flushed = flushed_bits(&mut run);
                            assert_eq!(flushed, flushed_bits(&mut looped), "{case}");
                        }
                    }
                }
            }
        }
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
        let data = two_blob_data();
        let before = app.objective(&data, &(), &params);
        let mut probs = Vec::new();
        for _ in 0..20 {
            app.process(&data, &mut (), &mut probs, &mut params, &mut rng);
        }
        let after = app.objective(&data, &(), &params);
        assert!(
            after < before,
            "training should reduce loss: {after} >= {before}"
        );
    }
}
