//! Shared `(key, value)` payload buffers for zero-copy messaging.
//!
//! Every data-plane message — read responses, update batches, backup
//! pushes, partition images — carries a list of `(ParamKey, V)` pairs.
//! Before this type existed those lists were plain `Vec`s, so every
//! simnet hop, fault-injected duplicate, and delayed redelivery deep-
//! cloned the full parameter payload. [`Values`] wraps the list in an
//! [`Arc`]: cloning a message is a reference-count bump, and the fault
//! layer's duplicate/delay verdicts *share* the payload with the
//! original delivery instead of copying it.
//!
//! The buffer is copy-on-write ([`Arc::make_mut`]): builders `push`
//! into a uniquely owned buffer at Vec cost, and the payload only
//! becomes shared once it is cloned into the network.

use std::sync::Arc;

use crate::partition::ParamKey;
use crate::value::PsValue;

/// A shared, cheaply clonable list of `(key, value)` pairs.
///
/// # Examples
///
/// ```
/// use proteus_ps::{DenseVec, ParamKey, Values};
///
/// let mut vals: Values<DenseVec> = Values::new();
/// vals.push((ParamKey(3), DenseVec::zeros(4)));
/// let on_the_wire = vals.clone();          // Arc bump, no buffer copy.
/// assert!(vals.shares_buffer(&on_the_wire));
/// assert_eq!(on_the_wire.len(), 1);
/// assert_eq!(on_the_wire[0].0, ParamKey(3));
/// ```
#[derive(Debug)]
pub struct Values<V>(Arc<Vec<(ParamKey, V)>>);

impl<V> Values<V> {
    /// The empty payload.
    pub fn new() -> Self {
        Values(Arc::new(Vec::new()))
    }

    /// Read-only view of the pairs.
    pub fn as_slice(&self) -> &[(ParamKey, V)] {
        &self.0
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates the pairs.
    pub fn iter(&self) -> std::slice::Iter<'_, (ParamKey, V)> {
        self.0.iter()
    }

    /// Whether `self` and `other` share one underlying buffer — the
    /// zero-copy invariant checked by messaging tests.
    pub fn shares_buffer(&self, other: &Values<V>) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<V: Clone> Values<V> {
    /// Appends a pair (copy-on-write: unshares the buffer first).
    pub fn push(&mut self, pair: (ParamKey, V)) {
        Arc::make_mut(&mut self.0).push(pair);
    }

    /// Consumes the payload, returning the pairs (copying only if the
    /// buffer is still shared).
    pub fn into_vec(self) -> Vec<(ParamKey, V)> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl<V: PsValue> Values<V> {
    /// Logical wire size: each pair ships its value plus an 8-byte key,
    /// exactly what the per-key path would ship pair by pair. Sharing
    /// the buffer across duplicated/delayed messages does not change
    /// the per-message volume reported here.
    pub fn wire_bytes(&self) -> usize {
        self.0
            .iter()
            .map(|(_, v)| v.wire_bytes() + std::mem::size_of::<u64>())
            .sum()
    }
}

impl<V> Default for Values<V> {
    fn default() -> Self {
        Values::new()
    }
}

impl<V> Clone for Values<V> {
    fn clone(&self) -> Self {
        Values(Arc::clone(&self.0))
    }
}

impl<V: PartialEq> PartialEq for Values<V> {
    fn eq(&self, other: &Self) -> bool {
        self.shares_buffer(other) || self.0 == other.0
    }
}

impl<V> std::ops::Deref for Values<V> {
    type Target = [(ParamKey, V)];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<V> From<Vec<(ParamKey, V)>> for Values<V> {
    fn from(v: Vec<(ParamKey, V)>) -> Self {
        Values(Arc::new(v))
    }
}

impl<V> FromIterator<(ParamKey, V)> for Values<V> {
    fn from_iter<I: IntoIterator<Item = (ParamKey, V)>>(iter: I) -> Self {
        Values(Arc::new(iter.into_iter().collect()))
    }
}

impl<V: Clone> IntoIterator for Values<V> {
    type Item = (ParamKey, V);
    type IntoIter = std::vec::IntoIter<(ParamKey, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a, V> IntoIterator for &'a Values<V> {
    type Item = &'a (ParamKey, V);
    type IntoIter = std::slice::Iter<'a, (ParamKey, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DenseVec;

    fn sample() -> Values<DenseVec> {
        vec![
            (ParamKey(1), DenseVec::from(vec![1.0, 2.0])),
            (ParamKey(5), DenseVec::from(vec![3.0])),
        ]
        .into()
    }

    #[test]
    fn clone_is_zero_copy_until_push() {
        let a = sample();
        let mut b = a.clone();
        assert!(a.shares_buffer(&b));
        b.push((ParamKey(9), DenseVec::zeros(1)));
        assert!(!a.shares_buffer(&b), "push must unshare");
        assert_eq!(a.len(), 2, "original untouched");
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn wire_bytes_matches_per_pair_sum() {
        let v = sample();
        // (2×4 + 8) + (1×4 + 8).
        assert_eq!(v.wire_bytes(), 16 + 12);
        // Sharing does not change per-message accounting.
        let dup = v.clone();
        assert_eq!(dup.wire_bytes(), v.wire_bytes());
    }

    #[test]
    fn into_vec_avoids_copy_when_unique() {
        let v = sample();
        let ptr = v.as_slice().as_ptr();
        let inner = v.into_vec();
        assert_eq!(inner.as_ptr(), ptr, "unique payload must move, not copy");
    }

    #[test]
    fn iteration_and_indexing_work_through_deref() {
        let v = sample();
        assert_eq!(v[0].0, ParamKey(1));
        let keys: Vec<ParamKey> = v.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![ParamKey(1), ParamKey(5)]);
        let consumed: Vec<(ParamKey, DenseVec)> = v.clone().into_iter().collect();
        assert_eq!(consumed.len(), 2);
        for (k, _) in &v {
            assert!(k.0 >= 1);
        }
    }
}
