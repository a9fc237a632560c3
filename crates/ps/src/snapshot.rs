//! Durable, bit-exact serialization of a model snapshot.
//!
//! A checkpoint is the full parameter map exported from the ReliablePS
//! partitions at a consistent clock. The encoding must round-trip every
//! `f32` **bit-exactly** (including NaN payloads and signed zeros) so a
//! restored job is indistinguishable from one that never restarted —
//! the determinism invariant extends across restarts. Values are
//! therefore written as `to_bits()` words, never through a decimal or
//! lossy path.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   b"PSNP"                     4 bytes
//! version u32                         4 bytes   (currently 1)
//! count   u64                         8 bytes   number of entries
//! entry*  key u64, dim u32, dim × f32-bits u32
//! ```
//!
//! Entries are written in ascending key order (the input is a
//! `BTreeMap`), so equal models produce byte-identical encodings.

use std::collections::BTreeMap;
use std::fmt;

use crate::partition::ParamKey;
use crate::value::DenseVec;

/// Format magic: identifies a parameter-snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PSNP";
/// Current encoding version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A typed decode failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob does not start with the `PSNP` magic.
    BadMagic,
    /// The blob's version is not one this build can decode.
    BadVersion(u32),
    /// The blob ended before the structure it promised was complete.
    Truncated { at: usize },
    /// The same key appeared twice.
    DuplicateKey(u64),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot blob has wrong magic"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated { at } => {
                write!(f, "snapshot blob truncated at byte {at}")
            }
            SnapshotError::DuplicateKey(k) => {
                write!(f, "snapshot blob repeats key {k}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Encodes a parameter map into the durable snapshot format.
pub fn encode_model(params: &BTreeMap<ParamKey, DenseVec>) -> Vec<u8> {
    let payload: usize = params.values().map(|v| 8 + 4 + 4 * v.dim()).sum::<usize>();
    let mut out = Vec::with_capacity(4 + 4 + 8 + payload);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(params.len() as u64).to_le_bytes());
    for (key, value) in params {
        out.extend_from_slice(&key.0.to_le_bytes());
        out.extend_from_slice(&(value.dim() as u32).to_le_bytes());
        for x in value.as_slice() {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    out
}

/// Decodes a snapshot blob back into a parameter map.
///
/// Inverse of [`encode_model`]: `decode_model(&encode_model(m)) == Ok(m)`
/// bit-exactly, for any map.
pub fn decode_model(bytes: &[u8]) -> Result<BTreeMap<ParamKey, DenseVec>, SnapshotError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], SnapshotError> {
        let start = *pos;
        let end = start
            .checked_add(n)
            .ok_or(SnapshotError::Truncated { at: start })?;
        if end > bytes.len() {
            return Err(SnapshotError::Truncated { at: start });
        }
        *pos = end;
        Ok(&bytes[start..end])
    };

    let magic = take(&mut pos, 4)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(le4(take(&mut pos, 4)?));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let count = u64::from_le_bytes(le8(take(&mut pos, 8)?));

    let mut params = BTreeMap::new();
    for _ in 0..count {
        let key = u64::from_le_bytes(le8(take(&mut pos, 8)?));
        let dim = u32::from_le_bytes(le4(take(&mut pos, 4)?)) as usize;
        let raw = take(&mut pos, 4 * dim)?;
        let mut components = Vec::with_capacity(dim);
        for chunk in raw.chunks_exact(4) {
            components.push(f32::from_bits(u32::from_le_bytes(le4(chunk))));
        }
        if params
            .insert(ParamKey(key), DenseVec::from(components))
            .is_some()
        {
            return Err(SnapshotError::DuplicateKey(key));
        }
    }
    Ok(params)
}

fn le4(s: &[u8]) -> [u8; 4] {
    [s[0], s[1], s[2], s[3]]
}

fn le8(s: &[u8]) -> [u8; 8] {
    [s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_equal(a: &BTreeMap<ParamKey, DenseVec>, b: &BTreeMap<ParamKey, DenseVec>) -> bool {
        a.len() == b.len()
            && a.iter().zip(b.iter()).all(|((ka, va), (kb, vb))| {
                ka == kb
                    && va.dim() == vb.dim()
                    && va
                        .as_slice()
                        .iter()
                        .zip(vb.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }

    #[test]
    fn empty_model_round_trips() {
        let m = BTreeMap::new();
        let decoded = decode_model(&encode_model(&m)).unwrap();
        assert!(bits_equal(&m, &decoded));
    }

    #[test]
    fn round_trip_preserves_nan_payloads_and_signed_zero() {
        let mut m = BTreeMap::new();
        m.insert(
            ParamKey(7),
            DenseVec::from(vec![
                f32::from_bits(0x7fc0_1234), // NaN with payload
                -0.0,
                f32::INFINITY,
                f32::MIN_POSITIVE / 2.0, // subnormal
            ]),
        );
        m.insert(ParamKey(u64::MAX), DenseVec::zeros(0));
        let decoded = decode_model(&encode_model(&m)).unwrap();
        assert!(bits_equal(&m, &decoded));
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut m = BTreeMap::new();
        for k in 0..32u64 {
            m.insert(ParamKey(k), DenseVec::from(vec![k as f32; 5]));
        }
        assert_eq!(encode_model(&m), encode_model(&m));
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let mut m = BTreeMap::new();
        m.insert(ParamKey(1), DenseVec::from(vec![1.0, 2.0]));
        m.insert(ParamKey(2), DenseVec::from(vec![3.0]));
        let full = encode_model(&m);
        for cut in 0..full.len() {
            let err = decode_model(&full[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut} gave {err:?}"
            );
        }
        assert!(decode_model(&full).is_ok());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let m = BTreeMap::new();
        let mut blob = encode_model(&m);
        blob[0] = b'X';
        assert_eq!(decode_model(&blob), Err(SnapshotError::BadMagic));

        let mut blob = encode_model(&m);
        blob[4] = 99;
        assert_eq!(decode_model(&blob), Err(SnapshotError::BadVersion(99)));
    }
}
