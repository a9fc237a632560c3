//! Synthetic dataset generators with the statistical structure of the
//! paper's corpora, at laptop scale.
//!
//! The paper evaluates on Netflix ratings (a sparse low-rank-ish matrix),
//! ImageNet LLC features (high-dimensional multi-class examples), and the
//! NYTimes corpus (topic-mixture documents). None are redistributable, so
//! these generators sample from the corresponding generative models; the
//! applications must actually recover structure from them, keeping every
//! convergence test honest.

use proteus_simtime::rng::seeded_stream;
use rand::Rng;

use crate::kmeans::Point;
use crate::lda::LdaDoc;
use crate::mf::Rating;
use crate::mlr::Example;

/// Parameters for the Netflix-like sparse rating matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfDataConfig {
    /// Number of rows (users).
    pub rows: u32,
    /// Number of columns (items).
    pub cols: u32,
    /// Ground-truth rank of the latent structure.
    pub true_rank: usize,
    /// Number of observed entries to sample.
    pub observed: usize,
    /// Additive observation noise scale.
    pub noise: f32,
}

impl Default for MfDataConfig {
    fn default() -> Self {
        MfDataConfig {
            rows: 200,
            cols: 100,
            true_rank: 4,
            observed: 4000,
            noise: 0.05,
        }
    }
}

/// Samples a sparse matrix with low-rank structure plus noise.
///
/// Entries are `u_iᵀ v_j + ε`, with latent factors drawn uniform in
/// `[-1, 1] / √rank` so values stay O(1).
pub fn netflix_like(config: &MfDataConfig, seed: u64) -> Vec<Rating> {
    let mut rng = seeded_stream(seed, 0xF00D);
    let scale = 1.0 / (config.true_rank as f32).sqrt();
    let factor = |rng: &mut rand::rngs::StdRng| -> Vec<f32> {
        (0..config.true_rank)
            .map(|_| rng.gen_range(-1.0..1.0) * scale)
            .collect()
    };
    let users: Vec<Vec<f32>> = (0..config.rows).map(|_| factor(&mut rng)).collect();
    let items: Vec<Vec<f32>> = (0..config.cols).map(|_| factor(&mut rng)).collect();

    (0..config.observed)
        .map(|_| {
            let row = rng.gen_range(0..config.rows);
            let col = rng.gen_range(0..config.cols);
            let dot: f32 = users[row as usize]
                .iter()
                .zip(items[col as usize].iter())
                .map(|(a, b)| a * b)
                .sum();
            let noise = rng.gen_range(-config.noise..config.noise);
            Rating {
                row,
                col,
                value: dot + noise,
            }
        })
        .collect()
}

/// Parameters for the ImageNet-like classification set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlrDataConfig {
    /// Number of examples.
    pub examples: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Number of classes.
    pub classes: u32,
    /// Distance between class centers (larger = easier).
    pub separation: f32,
    /// Within-class noise scale.
    pub noise: f32,
}

impl Default for MlrDataConfig {
    fn default() -> Self {
        MlrDataConfig {
            examples: 600,
            dim: 16,
            classes: 4,
            separation: 2.0,
            noise: 0.6,
        }
    }
}

/// Samples labelled examples from Gaussian-ish class clusters.
pub fn imagenet_like(config: &MlrDataConfig, seed: u64) -> Vec<Example> {
    let mut rng = seeded_stream(seed, 0xCAFE);
    let centers: Vec<Vec<f32>> = (0..config.classes)
        .map(|_| {
            (0..config.dim)
                .map(|_| rng.gen_range(-1.0..1.0) * config.separation)
                .collect()
        })
        .collect();
    (0..config.examples)
        .map(|i| {
            let label = (i as u32) % config.classes;
            let center = &centers[label as usize];
            let features = center
                .iter()
                .map(|c| c + approx_gaussian(&mut rng) * config.noise)
                .collect();
            Example { features, label }
        })
        .collect()
}

/// Parameters for the NYTimes-like topic-model corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdaDataConfig {
    /// Number of documents.
    pub docs: usize,
    /// Vocabulary size.
    pub vocab: u32,
    /// Number of ground-truth topics.
    pub true_topics: usize,
    /// Tokens per document.
    pub doc_len: usize,
    /// Concentration of each document on its main topic (0–1).
    pub topic_purity: f64,
}

impl Default for LdaDataConfig {
    fn default() -> Self {
        LdaDataConfig {
            docs: 60,
            vocab: 100,
            true_topics: 5,
            doc_len: 40,
            topic_purity: 0.85,
        }
    }
}

/// Samples documents from an LDA-style generative process: each topic
/// owns a contiguous slice of the vocabulary, each document mixes one
/// dominant topic with background noise.
///
/// `_model_topics`, the topic count the model will fit, is unused: a
/// document carries no per-topic state (its run's
/// [`LdaRun`](crate::lda::LdaRun) does). It stays so that callers,
/// `benchmark/` among them, build unchanged.
pub fn nytimes_like(config: &LdaDataConfig, seed: u64, _model_topics: usize) -> Vec<LdaDoc> {
    let mut rng = seeded_stream(seed, 0xD0C5);
    let words_per_topic = (config.vocab as usize / config.true_topics).max(1);
    (0..config.docs)
        .map(|d| {
            let main_topic = d % config.true_topics;
            let words: Vec<u32> = (0..config.doc_len)
                .map(|_| {
                    let topic = if rng.gen_bool(config.topic_purity) {
                        main_topic
                    } else {
                        rng.gen_range(0..config.true_topics)
                    };
                    let lo = (topic * words_per_topic) as u32;
                    let hi = (((topic + 1) * words_per_topic) as u32).min(config.vocab);
                    rng.gen_range(lo..hi.max(lo + 1))
                })
                .collect();
            LdaDoc { words }
        })
        .collect()
}

/// A cheap approximately-Gaussian draw (sum of uniforms, Irwin–Hall).
fn approx_gaussian(rng: &mut rand::rngs::StdRng) -> f32 {
    let s: f32 = (0..6).map(|_| rng.gen_range(-0.5f32..0.5)).sum();
    s
}

/// K-means points: `points` samples from `clusters` well-separated
/// Gaussian-ish blobs.
pub fn blobs(
    points: usize,
    dim: usize,
    clusters: u32,
    separation: f32,
    noise: f32,
    seed: u64,
) -> Vec<Point> {
    let mut rng = seeded_stream(seed, 0xB10B);
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|_| {
            (0..dim)
                .map(|_| rng.gen_range(-1.0..1.0) * separation)
                .collect()
        })
        .collect();
    (0..points)
        .map(|i| {
            let c = &centers[(i as u32 % clusters) as usize];
            Point {
                coords: c
                    .iter()
                    .map(|x| {
                        let g: f32 = (0..6).map(|_| rng.gen_range(-0.5f32..0.5)).sum();
                        x + g * noise
                    })
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netflix_like_is_deterministic_and_in_range() {
        let cfg = MfDataConfig::default();
        let a = netflix_like(&cfg, 1);
        let b = netflix_like(&cfg, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.observed);
        assert!(a.iter().all(|r| r.row < cfg.rows && r.col < cfg.cols));
        // Low-rank + small noise keeps entries O(1).
        assert!(a.iter().all(|r| r.value.abs() < 5.0));
    }

    #[test]
    fn different_seeds_give_different_data() {
        let cfg = MfDataConfig::default();
        assert_ne!(netflix_like(&cfg, 1), netflix_like(&cfg, 2));
    }

    #[test]
    fn imagenet_like_balances_labels() {
        let cfg = MlrDataConfig {
            examples: 400,
            classes: 4,
            ..MlrDataConfig::default()
        };
        let data = imagenet_like(&cfg, 3);
        assert_eq!(data.len(), 400);
        for k in 0..4u32 {
            let n = data.iter().filter(|e| e.label == k).count();
            assert_eq!(n, 100);
        }
        assert!(data.iter().all(|e| e.features.len() == cfg.dim));
    }

    #[test]
    fn nytimes_like_respects_vocab_and_length() {
        let cfg = LdaDataConfig::default();
        let docs = nytimes_like(&cfg, 5, 5);
        assert_eq!(docs.len(), cfg.docs);
        for d in &docs {
            assert_eq!(d.words.len(), cfg.doc_len);
            assert!(d.words.iter().all(|&w| w < cfg.vocab));
        }
    }

    #[test]
    fn topic_structure_is_present() {
        // Documents with the same dominant topic should share much more
        // vocabulary than documents from different topics.
        let cfg = LdaDataConfig {
            docs: 10,
            true_topics: 2,
            topic_purity: 1.0,
            ..LdaDataConfig::default()
        };
        let docs = nytimes_like(&cfg, 7, 2);
        let vocab_of =
            |d: &LdaDoc| -> std::collections::BTreeSet<u32> { d.words.iter().copied().collect() };
        // Docs 0 and 2 share topic 0; docs 0 and 1 differ.
        let same = vocab_of(&docs[0]).intersection(&vocab_of(&docs[2])).count();
        let diff = vocab_of(&docs[0]).intersection(&vocab_of(&docs[1])).count();
        assert!(
            same > diff,
            "same-topic overlap {same} <= cross-topic {diff}"
        );
    }
}
