//! Latent Dirichlet Allocation via collapsed Gibbs sampling.
//!
//! LDA discovers `K` topics in a corpus of bag-of-words documents via
//! word co-occurrence. The collapsed Gibbs sampler resamples each token's
//! topic assignment from a distribution combining the document's current
//! topic mix with the word's current topic counts.
//!
//! Shared state in the parameter server (all counts, so updates are
//! additive and commutative):
//!
//! * key `w` in `0..vocab` — the word-topic count vector `n_{w,·}` (dim `K`);
//! * key `vocab` — the global topic totals `n_·` (dim `K`).
//!
//! Per-document state (topic assignments `z` and the doc-topic histogram)
//! lives in the run's [`LdaRun`], beside the read-only [`LdaDoc`]s: a
//! re-loaded data partition starts it afresh after an eviction, keeping
//! workers stateless with respect to *solution* state.

use proteus_ps::{DenseVec, ParamKey, WorkerCache};
use rand::rngs::StdRng;
use rand::Rng;

use crate::app::{MlApp, ParamReader};

/// One document: its tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct LdaDoc {
    /// Word id of each token.
    pub words: Vec<u32>,
}

/// The state of one run of documents: each token's current topic and
/// each document's topic histogram, in the run's order. A fresh run (the
/// default) has neither; its first sweep sizes them, every token
/// unassigned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LdaRun {
    /// Topic assignment per token, the run's documents end to end;
    /// `u32::MAX` marks a token no sweep has assigned yet.
    assignments: Vec<u32>,
    /// Document-topic histograms `n_{d,·}`, `K` counts per document,
    /// kept consistent with `assignments`.
    doc_topics: Vec<u32>,
}

/// Configuration for [`Lda`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdaConfig {
    /// Vocabulary size `V`.
    pub vocab: u32,
    /// Number of topics `K`.
    pub topics: usize,
    /// Dirichlet prior on document-topic mixtures.
    pub alpha: f64,
    /// Dirichlet prior on topic-word distributions.
    pub beta: f64,
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig {
            vocab: 100,
            topics: 5,
            alpha: 0.5,
            beta: 0.1,
        }
    }
}

/// The LDA application.
#[derive(Debug, Clone)]
pub struct Lda {
    config: LdaConfig,
}

impl Lda {
    /// Creates an LDA app with the given configuration.
    pub fn new(config: LdaConfig) -> Self {
        Lda { config }
    }

    /// Key of word `w`'s topic-count vector.
    pub fn word_key(&self, word: u32) -> ParamKey {
        ParamKey(u64::from(word))
    }

    /// Key of the global topic-totals vector.
    pub fn totals_key(&self) -> ParamKey {
        ParamKey(u64::from(self.config.vocab))
    }

    /// Samples a topic for one token given unnormalized weights.
    fn sample_topic(weights: &[f64], rng: &mut StdRng) -> usize {
        let total: f64 = weights.iter().sum();
        let mut u = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (k, w) in weights.iter().enumerate() {
            if u < *w {
                return k;
            }
            u -= w;
        }
        weights.len() - 1
    }
}

impl MlApp for Lda {
    type Datum = LdaDoc;
    type RunState = LdaRun;
    type Scratch = ();

    fn key_count(&self) -> u64 {
        u64::from(self.config.vocab) + 1
    }

    fn value_dim(&self, _key: ParamKey) -> usize {
        self.config.topics
    }

    fn init_value(&self, _key: ParamKey, _rng: &mut StdRng) -> DenseVec {
        // Counts start at zero; the first sweep populates them.
        DenseVec::zeros(self.config.topics)
    }

    fn keys_for(&self, datum: &LdaDoc) -> Vec<ParamKey> {
        let mut keys: Vec<ParamKey> = datum.words.iter().map(|&w| self.word_key(w)).collect();
        keys.push(self.totals_key());
        keys.sort();
        keys.dedup();
        keys
    }

    fn process(
        &self,
        docs: &[LdaDoc],
        run: &mut LdaRun,
        _scratch: &mut (),
        params: &mut WorkerCache,
        rng: &mut StdRng,
    ) {
        let k_topics = self.config.topics;
        let alpha = self.config.alpha;
        let beta = self.config.beta;
        let v = f64::from(self.config.vocab);

        if run.doc_topics.is_empty() {
            let tokens = docs.iter().map(|d| d.words.len()).sum();
            run.assignments = vec![u32::MAX; tokens];
            run.doc_topics = vec![0; docs.len() * k_topics];
        }
        assert_eq!(
            run.doc_topics.len(),
            docs.len() * k_topics,
            "state of another run"
        );
        let mut assignments = run.assignments.as_mut_slice();
        let histograms = run.doc_topics.chunks_exact_mut(k_topics);
        for (doc, doc_topics) in docs.iter().zip(histograms) {
            let (doc_assignments, rest) = assignments.split_at_mut(doc.words.len());
            assignments = rest;
            // Local mutable copies of the counts this document touches;
            // deltas are added at the end, so every read below sees the
            // counts as they stood when the document was picked up.
            let totals = params.row(self.totals_key());
            let mut totals_now: Vec<f64> = totals.iter().map(|&x| f64::from(x)).collect();
            let mut delta_totals = vec![0.0f32; k_topics];
            let mut word_deltas: std::collections::HashMap<u32, Vec<f32>> =
                std::collections::HashMap::new();

            // Scratch buffers reused across tokens; allocating them per
            // token dominates the sweep cost for short vocab vectors.
            let mut base = vec![0.0f64; k_topics];
            let mut weights = vec![0.0f64; k_topics];

            for (&w, z) in doc.words.iter().zip(doc_assignments.iter_mut()) {
                for (b, &x) in base.iter_mut().zip(params.row(self.word_key(w))) {
                    *b = f64::from(x);
                }
                let wd = word_deltas.entry(w).or_insert_with(|| vec![0.0; k_topics]);

                // Remove the token's current assignment (if initialized).
                let old = *z;
                if old != u32::MAX {
                    let k = old as usize;
                    doc_topics[k] -= 1;
                    wd[k] -= 1.0;
                    delta_totals[k] -= 1.0;
                    totals_now[k] -= 1.0;
                }

                // Collapsed Gibbs conditional:
                //   p(z=k) ∝ (n_dk + α) (n_wk + β) / (n_k + Vβ)
                for (k, weight) in weights.iter_mut().enumerate() {
                    let n_dk = f64::from(doc_topics[k]) + alpha;
                    let n_wk = (base[k] + f64::from(wd[k]) + beta).max(beta);
                    let n_k = (totals_now[k] + v * beta).max(v * beta);
                    *weight = n_dk * n_wk / n_k;
                }
                let k = Self::sample_topic(&weights, rng);

                *z = k as u32;
                doc_topics[k] += 1;
                wd[k] += 1.0;
                delta_totals[k] += 1.0;
                totals_now[k] += 1.0;
            }

            let mut changed: Vec<(u32, Vec<f32>)> = word_deltas
                .into_iter()
                .filter(|(_, d)| d.iter().any(|&x| x != 0.0))
                .collect();
            changed.sort_by_key(|(w, _)| *w);
            for (w, d) in &changed {
                params.update(self.word_key(*w), d);
            }
            if delta_totals.iter().any(|&x| x != 0.0) {
                params.update(self.totals_key(), &delta_totals);
            }
        }
    }

    /// Per-token negative log-likelihood of the corpus under the current
    /// count state and the run's document-topic histograms (lower is
    /// better); a fresh run's are all zeros.
    fn objective(&self, data: &[LdaDoc], run: &LdaRun, params: &dyn ParamReader) -> f64 {
        let k_topics = self.config.topics;
        let alpha = self.config.alpha;
        let beta = self.config.beta;
        let v = f64::from(self.config.vocab);
        let totals = params.row(self.totals_key());
        let unassigned = vec![0; k_topics];

        let mut nll = 0.0f64;
        let mut tokens = 0usize;
        for (d, doc) in data.iter().enumerate() {
            let doc_topics = (run.doc_topics)
                .get(d * k_topics..(d + 1) * k_topics)
                .unwrap_or(&unassigned);
            let doc_len: f64 = doc_topics.iter().map(|&c| f64::from(c)).sum();
            for &w in &doc.words {
                let wk = params.row(self.word_key(w));
                let mut p = 0.0f64;
                for k in 0..k_topics {
                    let theta =
                        (f64::from(doc_topics[k]) + alpha) / (doc_len + alpha * k_topics as f64);
                    let phi = (f64::from(wk[k]) + beta) / (f64::from(totals[k]) + v * beta);
                    p += theta * phi;
                }
                nll -= p.max(1e-300).ln();
                tokens += 1;
            }
        }
        if tokens == 0 {
            0.0
        } else {
            nll / tokens as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_ps::{PartitionMap, WorkerCache};
    use proteus_simtime::rng::seeded;

    /// All-zero counts, every row reserved at the app's dimension.
    fn zero_counts(app: &Lda) -> WorkerCache {
        let mut params = WorkerCache::new(PartitionMap::new(1).expect("nonzero"));
        params.reserve((0..app.key_count()).map(|k| (ParamKey(k), app.value_dim(ParamKey(k)))));
        params
    }

    fn sweep(
        app: &Lda,
        docs: &[LdaDoc],
        run: &mut LdaRun,
        params: &mut WorkerCache,
        rng: &mut StdRng,
    ) {
        app.process(docs, run, &mut (), params, rng);
    }

    fn doc(words: Vec<u32>) -> LdaDoc {
        LdaDoc { words }
    }

    /// Each document's topic histogram in `run`.
    fn histograms<'a>(app: &Lda, run: &'a LdaRun) -> impl Iterator<Item = &'a [u32]> {
        run.doc_topics.chunks_exact(app.config.topics)
    }

    fn count_state(params: &WorkerCache, app: &Lda) -> (Vec<f32>, f32) {
        let word_sum: f32 = (0..app.config.vocab)
            .flat_map(|w| params.row(app.word_key(w)).iter().copied())
            .sum();
        (params.row(app.totals_key()).to_vec(), word_sum)
    }

    #[test]
    fn counts_stay_consistent_after_sweeps() {
        let app = Lda::new(LdaConfig {
            vocab: 20,
            topics: 3,
            ..LdaConfig::default()
        });
        let mut rng = seeded(7);
        let docs = vec![doc(vec![0, 1, 2, 3, 0, 1]), doc(vec![10, 11, 12, 10])];
        let mut run = LdaRun::default();
        let mut params = zero_counts(&app);
        for _ in 0..5 {
            sweep(&app, &docs, &mut run, &mut params, &mut rng);
        }
        let (totals, word_sum) = count_state(&params, &app);
        let total_tokens: usize = docs.iter().map(|d| d.words.len()).sum();
        // Topic totals sum to the token count, and equal the sum over
        // word-topic counts.
        let totals_sum: f32 = totals.iter().sum();
        assert_eq!(totals_sum as usize, total_tokens);
        assert_eq!(word_sum as usize, total_tokens);
        // Per-document histograms also match.
        assert!(run.assignments.iter().all(|&z| z != u32::MAX));
        assert_eq!(run.assignments.len(), total_tokens);
        for (d, doc_topics) in docs.iter().zip(histograms(&app, &run)) {
            let hist_sum: u32 = doc_topics.iter().sum();
            assert_eq!(hist_sum as usize, d.words.len());
        }
        // No negative counts anywhere.
        assert!(totals.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn separable_corpus_splits_topics() {
        // Two disjoint vocabularies: documents use either words 0..5 or
        // words 10..15. After Gibbs sweeps, each group should concentrate
        // in different dominant topics.
        let app = Lda::new(LdaConfig {
            vocab: 20,
            topics: 2,
            alpha: 0.1,
            beta: 0.05,
        });
        let mut rng = seeded(11);
        let mut docs = Vec::new();
        for i in 0..10 {
            let words: Vec<u32> = (0..20).map(|j| (i + j) % 5).collect();
            docs.push(doc(words));
        }
        for i in 0..10 {
            let words: Vec<u32> = (0..20).map(|j| 10 + (i + j) % 5).collect();
            docs.push(doc(words));
        }
        let mut run = LdaRun::default();
        let mut params = zero_counts(&app);
        for _ in 0..30 {
            sweep(&app, &docs, &mut run, &mut params, &mut rng);
        }
        let dominant: Vec<usize> = histograms(&app, &run)
            .map(|doc_topics| {
                (doc_topics.iter().enumerate())
                    .max_by_key(|(_, c)| **c)
                    .map(|(k, _)| k)
                    .unwrap()
            })
            .collect();
        let group_a = dominant[0];
        // Group A documents agree with each other…
        let a_agree = dominant[..10].iter().filter(|&&d| d == group_a).count();
        // …and group B mostly uses the other topic.
        let b_other = dominant[10..].iter().filter(|&&d| d != group_a).count();
        assert!(a_agree >= 8, "group A coherence: {a_agree}/10");
        assert!(b_other >= 8, "group B separation: {b_other}/10");
    }

    #[test]
    fn objective_improves_with_sweeps() {
        let app = Lda::new(LdaConfig {
            vocab: 30,
            topics: 3,
            ..LdaConfig::default()
        });
        let mut rng = seeded(13);
        let docs: Vec<LdaDoc> = (0..12)
            .map(|i| {
                let base = (i % 3) * 10;
                doc((0..15).map(|j| base + j % 10).collect())
            })
            .collect();
        let mut run = LdaRun::default();
        let mut params = zero_counts(&app);
        sweep(&app, &docs, &mut run, &mut params, &mut rng);
        let early = app.objective(&docs, &run, &params);
        for _ in 0..20 {
            sweep(&app, &docs, &mut run, &mut params, &mut rng);
        }
        let late = app.objective(&docs, &run, &params);
        assert!(
            late < early,
            "Gibbs sweeps should improve likelihood: {late} >= {early}"
        );
    }

    #[test]
    fn keys_for_dedups_repeated_words() {
        let app = Lda::new(LdaConfig {
            vocab: 20,
            topics: 2,
            ..LdaConfig::default()
        });
        let keys = app.keys_for(&doc(vec![3, 3, 3, 5]));
        // Words 3 and 5 plus the totals key.
        assert_eq!(keys.len(), 3);
        assert!(keys.contains(&app.totals_key()));
    }
}
