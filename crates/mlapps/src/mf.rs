//! Matrix factorization (collaborative filtering) via SGD.
//!
//! Given a partially observed matrix `X` (user × item ratings), factorize
//! `X ≈ L·R` with rank-`r` factors. Each worker processes its assigned
//! observed entries; for entry `(i, j, x)` it reads row `L_i` and column
//! `R_j`, computes the prediction error, and emits gradient updates with
//! L2 regularization. `L` rows occupy keys `0..rows` and `R` columns keys
//! `rows..rows+cols`.

use proteus_ps::{kernels, DenseVec, ParamKey, RunRows, WorkerCache};
use rand::rngs::StdRng;
use rand::Rng;

use crate::app::{MlApp, ParamReader};

/// One observed matrix entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// Row (user) index.
    pub row: u32,
    /// Column (item) index.
    pub col: u32,
    /// Observed value.
    pub value: f32,
}

/// Configuration for [`MatrixFactorization`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfConfig {
    /// Number of rows (users) in `X`.
    pub rows: u32,
    /// Number of columns (items) in `X`.
    pub cols: u32,
    /// Factorization rank.
    pub rank: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// L2 regularization coefficient.
    pub reg: f32,
    /// Scale of the random factor initialization.
    pub init_scale: f32,
}

impl Default for MfConfig {
    fn default() -> Self {
        MfConfig {
            rows: 200,
            cols: 100,
            rank: 8,
            learning_rate: 0.02,
            reg: 0.01,
            init_scale: 0.1,
        }
    }
}

/// The MF application.
#[derive(Debug, Clone)]
pub struct MatrixFactorization {
    config: MfConfig,
}

impl MatrixFactorization {
    /// Creates an MF app with the given configuration.
    pub fn new(config: MfConfig) -> Self {
        MatrixFactorization { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MfConfig {
        &self.config
    }

    /// Key of row factor `L_i`.
    pub fn row_key(&self, row: u32) -> ParamKey {
        ParamKey(u64::from(row))
    }

    /// Key of column factor `R_j`.
    pub fn col_key(&self, col: u32) -> ParamKey {
        ParamKey(u64::from(self.config.rows) + u64::from(col))
    }

    /// The prediction for one entry under the given parameters.
    pub fn predict(&self, row: u32, col: u32, params: &dyn ParamReader) -> f32 {
        kernels::dot(params.row(self.row_key(row)), params.row(self.col_key(col)))
    }
}

impl MlApp for MatrixFactorization {
    type Datum = Rating;
    type Scratch = ();

    fn key_count(&self) -> u64 {
        u64::from(self.config.rows) + u64::from(self.config.cols)
    }

    fn value_dim(&self, _key: ParamKey) -> usize {
        self.config.rank
    }

    fn init_value(&self, _key: ParamKey, rng: &mut StdRng) -> DenseVec {
        let s = self.config.init_scale;
        DenseVec::from(
            (0..self.config.rank)
                .map(|_| rng.gen_range(-s..s))
                .collect::<Vec<f32>>(),
        )
    }

    fn keys_for(&self, datum: &Rating) -> Vec<ParamKey> {
        vec![self.row_key(datum.row), self.col_key(datum.col)]
    }

    /// Each rating is one two-key step on `L_i` and `R_j`, whose rows
    /// are resolved into `rows` on the run's first pass (and again after
    /// the cache is cleared) and read from there on every other.
    fn process(
        &self,
        data: &mut [Rating],
        rows: &mut RunRows,
        _scratch: &mut (),
        params: &mut WorkerCache,
        _rng: &mut StdRng,
    ) {
        let (lr, reg, rank) = (self.config.learning_rate, self.config.reg, self.config.rank);
        let keys = |d: &Rating| (self.row_key(d.row), self.col_key(d.col));
        let at = params.resolve_pairs(rows, rank, data.iter().map(keys));
        assert_eq!(at.len(), data.len(), "rows resolved for another run");
        for (datum, at) in data.iter().zip(at) {
            // dL_i = -lr (err · R_j + reg · L_i) and
            // dR_j = -lr (err · L_i + reg · R_j), both of the rows as read.
            params.add_lincomb_pair_at(keys(datum), at, rank, |li, rj| {
                let err = kernels::dot(li, rj) - datum.value;
                (-lr * err, -lr * reg)
            });
        }
    }

    fn objective(&self, data: &[Rating], params: &dyn ParamReader) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sse: f64 = data
            .iter()
            .map(|r| {
                let e = f64::from(self.predict(r.row, r.col, params) - r.value);
                e * e
            })
            .sum();
        sse / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_ps::{PartitionMap, WorkerCache};
    use proteus_simtime::rng::seeded;

    fn empty_params() -> WorkerCache {
        WorkerCache::new(PartitionMap::new(1).expect("nonzero"))
    }

    #[test]
    fn keys_split_rows_then_cols() {
        let app = MatrixFactorization::new(MfConfig {
            rows: 10,
            cols: 5,
            ..MfConfig::default()
        });
        assert_eq!(app.row_key(3), ParamKey(3));
        assert_eq!(app.col_key(2), ParamKey(12));
        assert_eq!(app.key_count(), 15);
        let keys = app.keys_for(&Rating {
            row: 1,
            col: 4,
            value: 0.0,
        });
        assert_eq!(keys, vec![ParamKey(1), ParamKey(14)]);
    }

    #[test]
    fn gradient_reduces_error_for_single_entry() {
        let app = MatrixFactorization::new(MfConfig {
            rows: 1,
            cols: 1,
            rank: 2,
            learning_rate: 0.1,
            reg: 0.0,
            init_scale: 0.5,
        });
        let mut rng = seeded(1);
        let mut params = empty_params();
        for k in [ParamKey(0), ParamKey(1)] {
            params.refresh(k, app.init_value(k, &mut rng).as_slice());
        }
        let mut data = [Rating {
            row: 0,
            col: 0,
            value: 1.0,
        }];

        let mut last = f64::INFINITY;
        let mut rows = RunRows::default();
        for _ in 0..200 {
            app.process(&mut data, &mut rows, &mut (), &mut params, &mut rng);
            let obj = app.objective(&data, &params);
            assert!(
                obj <= last + 1e-6,
                "objective must not increase: {obj} > {last}"
            );
            last = obj;
        }
        assert!(last < 1e-3, "single entry should fit well, got {last}");
    }

    #[test]
    fn both_steps_use_the_rows_as_read() {
        // With reg = 0 the two deltas are err·R_j and err·L_i of the
        // *old* rows; an in-place first step must not leak into the
        // second.
        let app = MatrixFactorization::new(MfConfig {
            rows: 1,
            cols: 1,
            rank: 2,
            learning_rate: 1.0,
            reg: 0.0,
            init_scale: 0.5,
        });
        let mut params = empty_params();
        params.refresh(ParamKey(0), &[1.0, 2.0]);
        params.refresh(ParamKey(1), &[3.0, 4.0]);
        let mut data = [Rating {
            row: 0,
            col: 0,
            value: 10.0,
        }];
        // err = 1·3 + 2·4 − 10 = 1.
        app.process(
            &mut data,
            &mut RunRows::default(),
            &mut (),
            &mut params,
            &mut seeded(1),
        );
        assert_eq!(params.row(ParamKey(0)), &[1.0 - 3.0, 2.0 - 4.0]);
        assert_eq!(params.row(ParamKey(1)), &[3.0 - 1.0, 4.0 - 2.0]);
    }

    #[test]
    fn init_values_respect_scale_and_rank() {
        let app = MatrixFactorization::new(MfConfig::default());
        let mut rng = seeded(2);
        let v = app.init_value(ParamKey(0), &mut rng);
        assert_eq!(v.dim(), app.config().rank);
        assert!(v
            .as_slice()
            .iter()
            .all(|x| x.abs() <= app.config().init_scale));
    }

    #[test]
    fn objective_of_empty_dataset_is_zero() {
        let app = MatrixFactorization::new(MfConfig::default());
        assert_eq!(app.objective(&[], &empty_params()), 0.0);
    }
}
