//! Property tests for the durable snapshot encoding: export → restore
//! must be **bit-identical** for any model a job could ever hold —
//! arbitrary key layouts (clustered, sparse, extreme ids), arbitrary
//! dimensions including zero, and every f32 bit pattern including NaN
//! payloads, infinities, subnormals, and signed zeros.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proteus_ps::{decode_model, encode_model, DenseVec, ParamKey, SnapshotError};

/// Arbitrary f32 *bit patterns* — uniform over the whole 2^32 space, so
/// NaNs (quiet and signaling, any payload), infinities, subnormals, and
/// both zeros all occur.
fn any_f32_bits() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

/// An arbitrary model: up to `keys` entries over the full u64 key space
/// (so layouts from dense-clustered to astronomically sparse appear),
/// each with an independent dimension in `0..=max_dim`.
fn arb_model(keys: usize, max_dim: usize) -> impl Strategy<Value = BTreeMap<ParamKey, DenseVec>> {
    proptest::collection::btree_map(
        any::<u64>().prop_map(ParamKey),
        proptest::collection::vec(any_f32_bits(), 0..max_dim + 1).prop_map(DenseVec::from),
        0..keys + 1,
    )
}

fn bits(m: &BTreeMap<ParamKey, DenseVec>) -> Vec<(u64, Vec<u32>)> {
    m.iter()
        .map(|(k, v)| (k.0, v.as_slice().iter().map(|x| x.to_bits()).collect()))
        .collect()
}

proptest! {
    /// The round trip is the identity on bit patterns, whatever the
    /// layout or contents.
    #[test]
    fn export_restore_is_bit_identical(model in arb_model(24, 16)) {
        let decoded = decode_model(&encode_model(&model)).expect("decode");
        prop_assert_eq!(bits(&model), bits(&decoded));
    }

    /// Equal models encode to byte-identical blobs (the BTreeMap order
    /// is canonical), so checkpoint artifacts are reproducible.
    #[test]
    fn encoding_is_canonical(model in arb_model(12, 8)) {
        prop_assert_eq!(encode_model(&model), encode_model(&model.clone()));
    }

    /// No truncation of a valid blob decodes: every cut is a typed
    /// error, never a partial model passed off as complete — the
    /// property that makes single-slot checkpoint swaps atomic.
    #[test]
    fn every_truncation_is_rejected(model in arb_model(6, 6)) {
        let full = encode_model(&model);
        for cut in 0..full.len() {
            match decode_model(&full[..cut]) {
                Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::BadMagic) => {}
                other => prop_assert!(false, "cut {cut} gave {other:?}"),
            }
        }
    }

    /// Flipping any single byte of the header region is caught by the
    /// magic/version/count checks or yields a typed error — never a
    /// panic.
    #[test]
    fn header_corruption_never_panics(
        model in arb_model(4, 4),
        at in 0usize..16,
        xor in 1u8..255,
    ) {
        let mut blob = encode_model(&model);
        if at < blob.len() {
            blob[at] ^= xor;
            let _ = decode_model(&blob);
        }
    }
}
