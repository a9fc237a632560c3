//! K-means clustering via mini-batch commutative updates.
//!
//! K-means is one of the stateless-worker applications the paper lists
//! as natural parameter-server workloads (Sec. 3.2). The Lloyd's-style
//! update is expressed additively so it composes with the PS's
//! commutative merge: key `k` stores `[sum_0..sum_{d-1}, count]` for
//! cluster `k` — the running sum of points assigned to the cluster plus
//! the assignment count. A centroid is the stored sum divided by the
//! stored count; workers assign each point to the nearest current
//! centroid and emit pure `(point, +1)` accumulation deltas (online
//! mini-batch K-means with an implicit `1/n` step size). Accumulation
//! is exactly commutative and — unlike decay-style forgetting — safe
//! under the stale reads inherent to asynchronous parameter servers:
//! no combination of concurrent updates can drive a cluster's mass
//! negative.

use proteus_ps::{kernels, DenseVec, ParamKey, RunRows, WorkerCache};
use rand::rngs::StdRng;
use rand::Rng;

use crate::app::{MlApp, ParamReader};

/// One data point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Coordinates of dimension `KmConfig::dim`.
    pub coords: Vec<f32>,
}

/// Configuration for [`KMeans`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmConfig {
    /// Point dimension `d`.
    pub dim: usize,
    /// Number of clusters `K`.
    pub clusters: u32,
    /// Scale of the random centroid initialization.
    pub init_scale: f32,
}

impl Default for KmConfig {
    fn default() -> Self {
        KmConfig {
            dim: 4,
            clusters: 3,
            init_scale: 1.0,
        }
    }
}

/// The K-means application.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KmConfig,
}

impl KMeans {
    /// Creates a K-means app with the given configuration.
    pub fn new(config: KmConfig) -> Self {
        KMeans { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &KmConfig {
        &self.config
    }

    /// The centroid encoded in a stored value (`None` when the cluster
    /// has no accumulated mass yet).
    pub fn centroid(value: &[f32]) -> Option<Vec<f32>> {
        let (count, sums) = value.split_last()?;
        if *count <= f32::EPSILON {
            return None;
        }
        Some(sums.iter().map(|x| x / count).collect())
    }

    /// Index of the nearest cluster to `coords` under the parameters.
    pub fn assign(&self, coords: &[f32], params: &dyn ParamReader) -> u32 {
        let mut best = (0u32, f64::INFINITY);
        for k in 0..self.config.clusters {
            let value = params.row(ParamKey(u64::from(k)));
            let center = match Self::centroid(value) {
                Some(c) => c,
                // Empty cluster: treat its (implicit) random-init sum as
                // a unit-count centroid so it can attract points.
                None => value[..self.config.dim].to_vec(),
            };
            let d2 = kernels::dist_sq(coords, &center);
            if d2 < best.1 {
                best = (k, d2);
            }
        }
        best.0
    }
}

impl MlApp for KMeans {
    type Datum = Point;
    /// The accumulation delta `[coords.., 1]` of the datum in hand.
    type Scratch = Vec<f32>;

    fn key_count(&self) -> u64 {
        u64::from(self.config.clusters)
    }

    fn value_dim(&self, _key: ParamKey) -> usize {
        self.config.dim + 1 // Sums plus the count slot.
    }

    fn init_value(&self, _key: ParamKey, rng: &mut StdRng) -> DenseVec {
        // A random unit-mass pseudo-point seeds each cluster.
        let s = self.config.init_scale;
        let mut v: Vec<f32> = (0..self.config.dim).map(|_| rng.gen_range(-s..s)).collect();
        v.push(1.0);
        DenseVec::from(v)
    }

    fn keys_for(&self, _datum: &Point) -> Vec<ParamKey> {
        (0..u64::from(self.config.clusters)).map(ParamKey).collect()
    }

    fn process(
        &self,
        data: &mut [Point],
        _rows: &mut RunRows,
        delta: &mut Vec<f32>,
        params: &mut WorkerCache,
        _rng: &mut StdRng,
    ) {
        for datum in data {
            let k = self.assign(&datum.coords, &*params);

            // Pure accumulation: add the point to its cluster's running
            // sum and bump the count. The centroid sum/count then tracks
            // the mean of every assignment so far (an implicit 1/n step
            // size).
            delta.clear();
            delta.extend_from_slice(&datum.coords);
            delta.push(1.0);
            params.update(ParamKey(u64::from(k)), delta);
        }
    }

    /// Mean squared distance of each point to its assigned centroid
    /// (the K-means distortion; lower is better).
    fn objective(&self, data: &[Point], params: &dyn ParamReader) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let total: f64 = data
            .iter()
            .map(|p| {
                let k = self.assign(&p.coords, params);
                let value = params.row(ParamKey(u64::from(k)));
                let center =
                    KMeans::centroid(value).unwrap_or_else(|| value[..self.config.dim].to_vec());
                kernels::dist_sq(&p.coords, &center)
            })
            .sum();
        total / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::blobs;
    use crate::SequentialTrainer;
    use proteus_ps::{PartitionMap, WorkerCache};
    use proteus_simtime::rng::seeded;

    fn params_of(rows: &[&[f32]]) -> WorkerCache {
        let mut params = WorkerCache::new(PartitionMap::new(1).expect("nonzero"));
        for (k, row) in rows.iter().enumerate() {
            params.refresh(ParamKey(k as u64), row);
        }
        params
    }

    #[test]
    fn centroid_decoding() {
        // Sum (2, 4) with count 2 → centroid (1, 2).
        assert_eq!(KMeans::centroid(&[2.0, 4.0, 2.0]), Some(vec![1.0, 2.0]));
        assert_eq!(KMeans::centroid(&[1.0, 1.0, 0.0]), None);
    }

    #[test]
    fn assignment_picks_nearest_cluster() {
        let app = KMeans::new(KmConfig {
            dim: 1,
            clusters: 2,
            ..KmConfig::default()
        });
        // Cluster 0 at −1, cluster 1 at +1 (count 1 each).
        let reader = params_of(&[&[-1.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(app.assign(&[-0.9], &reader), 0);
        assert_eq!(app.assign(&[0.7], &reader), 1);
    }

    #[test]
    fn kmeans_converges_on_blobs() {
        let dim = 3;
        let clusters = 3;
        let data = blobs(240, dim, clusters, 3.0, 0.4, 5);
        let app = KMeans::new(KmConfig {
            dim,
            clusters,
            init_scale: 2.0,
        });
        let mut t = SequentialTrainer::new(app, data, 5);
        t.run(2);
        let early = t.objective();
        t.run(18);
        let late = t.objective();
        assert!(late < early, "distortion falls: {early} -> {late}");
        // Blob noise 0.4 on 3 dims → distortion floor around 3·0.4²·k.
        assert!(late < 2.0, "near the noise floor, got {late}");
    }

    #[test]
    fn clusters_separate_distinct_blobs() {
        let dim = 2;
        let data = blobs(150, dim, 3, 4.0, 0.3, 9);
        let app = KMeans::new(KmConfig {
            dim,
            clusters: 3,
            init_scale: 3.0,
        });
        let mut t = SequentialTrainer::new(app, data.clone(), 9);
        t.run(25);
        // Points generated round-robin: i % 3 is the true blob. Check
        // that learned assignments respect the true partition (up to
        // label permutation): points of the same blob share a label.
        let labels: Vec<u32> = data
            .iter()
            .map(|p| t.app().assign(&p.coords, t.params()))
            .collect();
        for blob in 0..3usize {
            let blob_labels: Vec<u32> = labels
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == blob)
                .map(|(_, l)| *l)
                .collect();
            let mode = {
                let mut counts = [0usize; 3];
                for &l in &blob_labels {
                    counts[l as usize] += 1;
                }
                *counts.iter().max().expect("nonempty")
            };
            assert!(
                mode as f64 / blob_labels.len() as f64 > 0.9,
                "blob {blob} coherence {mode}/{}",
                blob_labels.len()
            );
        }
    }

    #[test]
    fn updates_are_single_key() {
        let app = KMeans::new(KmConfig::default());
        let mut rng = seeded(1);
        let mut params = WorkerCache::new(PartitionMap::new(1).expect("nonzero"));
        for k in (0..app.key_count()).map(ParamKey) {
            params.refresh(k, app.init_value(k, &mut rng).as_slice());
        }
        let mut points = [Point {
            coords: vec![0.5; 4],
        }];
        app.process(
            &mut points,
            &mut RunRows::default(),
            &mut Vec::new(),
            &mut params,
            &mut rng,
        );
        let flushed = params.flush();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].1.len(), 1, "one point updates one cluster");
        let (_, row) = flushed[0].1.iter().next().expect("one row");
        assert_eq!(row, &[0.5, 0.5, 0.5, 0.5, 1.0]);
    }

    #[test]
    fn blobs_generator_is_deterministic() {
        assert_eq!(blobs(10, 2, 2, 1.0, 0.1, 3), blobs(10, 2, 2, 1.0, 0.1, 3));
        assert_ne!(blobs(10, 2, 2, 1.0, 0.1, 3), blobs(10, 2, 2, 1.0, 0.1, 4));
    }
}
