//! Sizes of every workload and the inputs drawn from the run's seed.
//!
//! The crates only ever see generated inputs; the seed never reaches
//! them as such. What a seed draws: training data and model
//! initialisation (`train_*`), the training data of the job in the
//! background of `session_*`, the 1 250 job start times of
//! `cost_study`, and the trial qualities of `fleet_sweep`.
//!
//! The market scenarios are *not* drawn from the seed: each market
//! workload replays one named, fixed price history (and, for
//! `session_churn`, one fixed set of provider-fault draws), as the
//! paper replays one recorded AWS history from random starting points.
//! A study or a sweep averages over a thousand starts or trials, so its
//! figures hold still when those are redrawn; a session is a single
//! trajectory, and redrawing its scenario moves wall time per simulated
//! hour by 30 % between seeds (the eviction count of a 28-day window
//! ranges 350–580; redrawing the fault draws alone moves it 6 %) — far
//! more than any change the benchmark is meant to resolve.

use proteus_mlapps::data::{imagenet_like, netflix_like, MfDataConfig, MlrDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig, Rating};
use proteus_mlapps::mlr::{Example, Mlr, MlrConfig};
use proteus_simtime::rng::{derive_seed, seeded_stream};
use proteus_simtime::{SimDuration, SimTime};

/// Every size constant of the benchmark. [`Sizes::full`] is what the
/// recorded baseline uses and is frozen; [`Sizes::quick`] is one short
/// rep per workload for the package's own tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    pub mf: MfShape,
    pub mf_clocks: u64,
    pub mlr: MlrShape,
    pub mlr_clocks: u64,
    /// Clocks run before timing starts (first-touch allocation, caches).
    pub warm_clocks: u64,
    pub elastic_cycles: u32,
    /// The small MF job that trains in the background of a session.
    pub session_mf: MfShape,
    pub calm_hours: u64,
    pub churn_hours: u64,
    pub study_starts_2h: usize,
    pub study_starts_20h: usize,
    pub fleet_trials: usize,
    pub fleet_small_trials: usize,
    pub fleet_horizon_hours: u64,
    /// Cycles of the scripted elasticity probe run beside a session.
    pub probe_cycles: u32,
    /// Divides the iteration count of every fixed-size layer probe.
    pub probe_divisor: usize,
    /// Timed reps never number fewer than this.
    pub min_reps: usize,
    /// One discarded rep before the timed ones.
    pub warm_up: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfShape {
    pub rows: u32,
    pub cols: u32,
    pub ratings: usize,
    pub rank: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlrShape {
    pub examples: usize,
    pub dim: usize,
    pub classes: u32,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            mf: MfShape {
                rows: 600,
                cols: 400,
                ratings: 60_000,
                rank: 16,
            },
            mf_clocks: 150,
            mlr: MlrShape {
                examples: 4_000,
                dim: 512,
                classes: 16,
            },
            mlr_clocks: 100,
            warm_clocks: 2,
            elastic_cycles: 30,
            session_mf: MfShape {
                rows: 200,
                cols: 150,
                ratings: 12_000,
                rank: 8,
            },
            calm_hours: 1_008,
            churn_hours: 168,
            study_starts_2h: 1_000,
            study_starts_20h: 250,
            fleet_trials: 6_000,
            fleet_small_trials: 500,
            fleet_horizon_hours: 140,
            probe_cycles: 12,
            probe_divisor: 1,
            min_reps: 3,
            warm_up: true,
        }
    }

    pub fn quick() -> Self {
        Sizes {
            mf: MfShape {
                rows: 120,
                cols: 80,
                ratings: 4_000,
                rank: 8,
            },
            mf_clocks: 6,
            mlr: MlrShape {
                examples: 400,
                dim: 64,
                classes: 8,
            },
            mlr_clocks: 4,
            warm_clocks: 1,
            elastic_cycles: 2,
            session_mf: MfShape {
                rows: 60,
                cols: 40,
                ratings: 1_500,
                rank: 4,
            },
            calm_hours: 24,
            churn_hours: 12,
            study_starts_2h: 12,
            study_starts_20h: 4,
            fleet_trials: 60,
            fleet_small_trials: 20,
            fleet_horizon_hours: 30,
            probe_cycles: 2,
            probe_divisor: 50,
            min_reps: 1,
            warm_up: false,
        }
    }
}

/// Days of price history BidBrain's beta is trained on before any
/// market workload starts.
pub const TRAIN_DAYS: u64 = 14;

/// The fixed price history each market workload replays (see the
/// module docs): the seed given to the crates' trace generator.
pub const SESSION_HISTORY: u64 = 2016;
/// Seed of the provider-fault draws of `session_churn`.
pub const SESSION_FAULTS: u64 = 2016;
pub const STUDY_HISTORY: u64 = 1;
pub const FLEET_HISTORY: u64 = 41;

/// Evaluation window the cost study draws job starts from.
pub const STUDY_EVAL_DAYS: u64 = 28;

// Independent streams of one run seed.
const STREAM_MODEL: u64 = 1;
const STREAM_STARTS_2H: u64 = 3;
const STREAM_STARTS_20H: u64 = 4;
const STREAM_SWEEP: u64 = 5;

/// Seed of model initialisation (`AgileConfig::seed`) for `train_*`.
pub fn model_seed(seed: u64) -> u64 {
    derive_seed(seed, STREAM_MODEL)
}

/// Seed of the sweep's trial qualities for `fleet_sweep`.
pub fn sweep_seed(seed: u64) -> u64 {
    derive_seed(seed, STREAM_SWEEP)
}

/// A Netflix-like rating set of `shape` and the MF app that fits it.
pub fn mf_problem(seed: u64, shape: MfShape) -> (MatrixFactorization, Vec<Rating>) {
    let data = netflix_like(
        &MfDataConfig {
            rows: shape.rows,
            cols: shape.cols,
            true_rank: shape.rank / 2,
            observed: shape.ratings,
            noise: 0.05,
        },
        seed,
    );
    let app = MatrixFactorization::new(MfConfig {
        rows: shape.rows,
        cols: shape.cols,
        rank: shape.rank,
        ..MfConfig::default()
    });
    (app, data)
}

/// An ImageNet-like example set of `shape` and the MLR app that fits
/// it. Class centres sit 0.05 apart under unit noise, so the classes
/// overlap and the loss settles near half its initial value instead of
/// collapsing to zero as it does on separable data.
pub fn mlr_problem(seed: u64, shape: MlrShape) -> (Mlr, Vec<Example>) {
    let data = imagenet_like(
        &MlrDataConfig {
            examples: shape.examples,
            dim: shape.dim,
            classes: shape.classes,
            separation: 0.05,
            noise: 1.0,
        },
        seed,
    );
    let app = Mlr::new(MlrConfig {
        dim: shape.dim,
        classes: shape.classes,
        learning_rate: 0.01,
        ..MlrConfig::default()
    });
    (app, data)
}

/// `n` job start instants drawn uniformly, to the minute, from the cost
/// study's evaluation window. `long` picks the stream of the 20-hour
/// half so the two halves start at different times.
pub fn study_starts(seed: u64, n: usize, long: bool) -> Vec<SimTime> {
    use rand::Rng;
    let stream = if long {
        STREAM_STARTS_20H
    } else {
        STREAM_STARTS_2H
    };
    let mut rng = seeded_stream(seed, stream);
    let from = 24 * 60 * TRAIN_DAYS;
    let to = 24 * 60 * (TRAIN_DAYS + STUDY_EVAL_DAYS);
    (0..n)
        .map(|_| SimTime::EPOCH + SimDuration::from_mins(rng.gen_range(from..to)))
        .collect()
}

/// FNV-1a over the bit patterns of a workload's seed-drawn inputs: two
/// runs saw the same inputs exactly when their fingerprints agree.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Fingerprint of everything `workload` draws from `seed` at `sizes`.
pub fn fingerprint(workload: &str, seed: u64, sizes: &Sizes) -> Option<u64> {
    let mut fp = Fingerprint::default();
    let mf = |fp: &mut Fingerprint, shape: MfShape| {
        for r in mf_problem(seed, shape).1 {
            fp.add(u64::from(r.row) << 32 | u64::from(r.col));
            fp.add(u64::from(r.value.to_bits()));
        }
    };
    match workload {
        "train_mf" | "train_elastic" => {
            mf(&mut fp, sizes.mf);
            fp.add(model_seed(seed));
        }
        "train_mlr" => {
            for e in mlr_problem(seed, sizes.mlr).1 {
                fp.add(u64::from(e.label));
                e.features
                    .iter()
                    .for_each(|f| fp.add(u64::from(f.to_bits())));
            }
            fp.add(model_seed(seed));
        }
        "session_calm" | "session_churn" => mf(&mut fp, sizes.session_mf),
        "cost_study" => {
            let short = study_starts(seed, sizes.study_starts_2h, false);
            let long = study_starts(seed, sizes.study_starts_20h, true);
            for t in short.iter().chain(&long) {
                fp.add(t.as_millis());
            }
        }
        "fleet_sweep" => fp.add(sweep_seed(seed)),
        _ => return None,
    }
    Some(fp.value())
}
