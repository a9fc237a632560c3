//! Bit-exact fingerprints of the sequential trainer, one per bundled
//! app. The constants were recorded on the commit *before* `MlApp`
//! moved from returned delta lists to in-place row access; a refactor
//! of the data path must keep the arithmetic and its per-datum order,
//! so every bit of the objective and of every parameter must survive.

use proteus_mlapps::data::blobs;
use proteus_mlapps::data::{
    imagenet_like, netflix_like, nytimes_like, LdaDataConfig, MfDataConfig, MlrDataConfig,
};
use proteus_mlapps::lda::{Lda, LdaConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_mlapps::mlr::{Mlr, MlrConfig};
use proteus_mlapps::{KMeans, KmConfig};
use proteus_mlapps::{MlApp, SequentialTrainer};
use proteus_ps::ParamKey;

/// FNV-1a over the little-endian bit patterns of every parameter, in
/// key order, with each row's length mixed in.
fn model_hash<A: MlApp>(t: &SequentialTrainer<A>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for k in 0..t.app().key_count() {
        let row = t.params().row(ParamKey(k));
        eat(&(row.len() as u64).to_le_bytes());
        for x in row {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

fn fingerprint<A: MlApp>(app: A, data: Vec<A::Datum>, seed: u64, passes: u64) -> (u64, u64) {
    let mut t = SequentialTrainer::new(app, data, seed);
    t.run(passes);
    (t.objective().to_bits(), model_hash(&t))
}

#[test]
fn mf_sequential_fingerprint() {
    let data = netflix_like(
        &MfDataConfig {
            rows: 60,
            cols: 40,
            true_rank: 3,
            observed: 1500,
            noise: 0.02,
        },
        42,
    );
    // Rank 11 = one full 8-lane chunk plus a scalar tail.
    let app = MatrixFactorization::new(MfConfig {
        rows: 60,
        cols: 40,
        rank: 11,
        learning_rate: 0.05,
        reg: 1e-3,
        init_scale: 0.2,
    });
    assert_eq!(
        fingerprint(app, data, 42, 5),
        (MF_OBJECTIVE_BITS, MF_MODEL_HASH)
    );
}

/// `train_mf`'s shape: 600 × 400 with 60 000 ratings at rank 16, the
/// app's default step sizes. Rank 16 is two whole 8-lane chunks and no
/// tail, which the rank-11 problem above never runs. Recorded on the
/// commit before MF's pass read its rows through resolved offsets.
#[test]
fn mf_rank16_sequential_fingerprint() {
    let data = netflix_like(
        &MfDataConfig {
            rows: 600,
            cols: 400,
            true_rank: 8,
            observed: 60_000,
            noise: 0.05,
        },
        16,
    );
    let app = MatrixFactorization::new(MfConfig {
        rows: 600,
        cols: 400,
        rank: 16,
        ..MfConfig::default()
    });
    assert_eq!(
        fingerprint(app, data, 16, 3),
        (MF16_OBJECTIVE_BITS, MF16_MODEL_HASH)
    );
}

/// MLR on 200 examples of width `dim` in 5 classes, after 4 passes.
fn mlr_fingerprint(dim: usize) -> (u64, u64) {
    let data = imagenet_like(
        &MlrDataConfig {
            examples: 200,
            dim,
            classes: 5,
            separation: 2.0,
            noise: 0.4,
        },
        7,
    );
    let app = Mlr::new(MlrConfig {
        dim,
        classes: 5,
        learning_rate: 0.1,
        reg: 1e-3,
    });
    fingerprint(app, data, 7, 4)
}

#[test]
fn mlr_sequential_fingerprint() {
    assert_eq!(mlr_fingerprint(19), (MLR_OBJECTIVE_BITS, MLR_MODEL_HASH));
}

/// Width 75 = nine 8-lane chunks plus a 3-float tail, past the kernels'
/// 64-float twin floor: on an AVX2 CPU this runs the twins. Recorded on
/// the commit before MLR's pass fused each step with the next logits.
#[test]
fn mlr_wide_sequential_fingerprint() {
    assert_eq!(
        mlr_fingerprint(75),
        (MLR_WIDE_OBJECTIVE_BITS, MLR_WIDE_MODEL_HASH)
    );
}

#[test]
fn lda_sequential_fingerprint() {
    let data = nytimes_like(
        &LdaDataConfig {
            docs: 30,
            vocab: 60,
            true_topics: 3,
            doc_len: 30,
            topic_purity: 0.9,
        },
        9,
        4,
    );
    let app = Lda::new(LdaConfig {
        vocab: 60,
        topics: 4,
        alpha: 0.3,
        beta: 0.05,
    });
    assert_eq!(
        fingerprint(app, data, 9, 6),
        (LDA_OBJECTIVE_BITS, LDA_MODEL_HASH)
    );
}

#[test]
fn kmeans_sequential_fingerprint() {
    let data = blobs(240, 3, 3, 3.0, 0.4, 5);
    let app = KMeans::new(KmConfig {
        dim: 3,
        clusters: 3,
        init_scale: 2.0,
    });
    assert_eq!(
        fingerprint(app, data, 5, 4),
        (KM_OBJECTIVE_BITS, KM_MODEL_HASH)
    );
}

const MF_OBJECTIVE_BITS: u64 = 0x3fa0_0148_e442_425e;
const MF_MODEL_HASH: u64 = 0x8952_d674_206e_6b17;
const MF16_OBJECTIVE_BITS: u64 = 0x3f8e_2961_8d00_ecf0;
const MF16_MODEL_HASH: u64 = 0xb833_8a0b_0974_9a33;
const MLR_OBJECTIVE_BITS: u64 = 0x3f68_9fab_8260_8fdb;
const MLR_MODEL_HASH: u64 = 0x9edc_2049_8528_c30b;
const MLR_WIDE_OBJECTIVE_BITS: u64 = 0x3f35_9189_3d49_435f;
const MLR_WIDE_MODEL_HASH: u64 = 0xa6df_1e68_7516_eafd;
const LDA_OBJECTIVE_BITS: u64 = 0x400b_c61d_bc37_d555;
const LDA_MODEL_HASH: u64 = 0x6d2a_d6c3_5c65_b041;
const KM_OBJECTIVE_BITS: u64 = 0x3fce_bdfc_9193_1ec1;
const KM_MODEL_HASH: u64 = 0xbf59_39b7_bbc5_4027;
