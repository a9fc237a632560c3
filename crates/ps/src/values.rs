//! One flat, shared buffer per data-plane payload.
//!
//! Every data-plane message — read responses, update batches, backup
//! pushes, partition images — carries a list of `(key, row)` pairs.
//! [`Values`] keeps the whole list in one [`Arc`] holding three vectors:
//! the keys, where each row ends, and every row's components back to
//! back. Building a payload copies each row into it once; after that,
//! cloning a message is a reference-count bump, and the fault layer's
//! duplicate/delay verdicts *share* the payload with the original
//! delivery instead of copying it.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::kernels;
use crate::partition::ParamKey;
use crate::value::DenseVec;

/// The widest row [`Rows::push`] copies in a loop of its own.
const SHORT_ROW: usize = 32;

/// The rows of one payload, built in place by the crate's producers
/// (`WorkerCache::flush`, the `ShardStore` exports) at their exact size.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows {
    keys: Vec<ParamKey>,
    /// `ends[i]` is where row `i` ends in `data` (and row `i + 1` starts).
    ends: Vec<usize>,
    data: Vec<f32>,
}

impl Rows {
    /// Room for `rows` rows of `floats` components in all.
    pub(crate) fn with_capacity(rows: usize, floats: usize) -> Self {
        Rows {
            keys: Vec::with_capacity(rows),
            ends: Vec::with_capacity(rows),
            data: Vec::with_capacity(floats),
        }
    }

    /// Appends one row. A short row is copied as an iterator, which
    /// LLVM makes an inline vector loop; `extend_from_slice` would make
    /// it a libc `memcpy` call, dearer than the copy. A long row takes
    /// the `memcpy`.
    #[inline]
    pub(crate) fn push(&mut self, key: ParamKey, row: &[f32]) {
        self.keys.push(key);
        if row.len() <= SHORT_ROW {
            self.data.extend(row.iter().copied());
        } else {
            self.data.extend_from_slice(row);
        }
        self.ends.push(self.data.len());
    }

    /// Makes room for `floats` more components unless some is already
    /// there (a reply sized from its first row).
    pub(crate) fn reserve_floats(&mut self, floats: usize) {
        if self.data.capacity() == 0 {
            self.data.reserve_exact(floats);
        }
    }
}

/// A shared, cheaply clonable list of `(key, row)` pairs in one buffer.
///
/// `V` names the value type the rows stand for; the rows themselves are
/// `f32` slices.
///
/// # Examples
///
/// ```
/// use proteus_ps::{DenseVec, ParamKey, Values};
///
/// let mut vals: Values<DenseVec> = Values::new();
/// vals.push((ParamKey(3), DenseVec::zeros(4)));
/// vals.push((ParamKey(5), DenseVec::from(vec![1.0])));
/// let on_the_wire = vals.clone();          // Arc bump, no buffer copy.
/// assert!(vals.shares_buffer(&on_the_wire));
/// assert_eq!(on_the_wire.len(), 2);
/// let (key, row) = on_the_wire.iter().nth(1).unwrap();
/// assert_eq!((key, row), (ParamKey(5), &[1.0][..]));
/// ```
#[derive(Debug)]
pub struct Values<V = DenseVec>(Arc<Rows>, PhantomData<fn() -> V>);

impl Values<DenseVec> {
    /// The empty payload.
    pub fn new() -> Self {
        Values::default()
    }

    pub(crate) fn from_rows(rows: Rows) -> Self {
        Values(Arc::new(rows), PhantomData)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.0.keys.len()
    }

    /// Components in all rows together.
    pub(crate) fn floats(&self) -> usize {
        self.0.data.len()
    }

    /// Whether the payload holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.0.keys.is_empty()
    }

    /// Iterates the pairs in push order, each row borrowed from the one
    /// buffer.
    pub fn iter(&self) -> ValuesIter<'_> {
        ValuesIter {
            rows: &self.0,
            next: 0,
            start: 0,
        }
    }

    /// Whether `self` and `other` share one underlying buffer — the
    /// zero-copy invariant checked by messaging tests.
    pub fn shares_buffer(&self, other: &Values) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Appends a pair (copy-on-write: unshares the buffer first).
    pub fn push(&mut self, (key, row): (ParamKey, impl AsRef<[f32]>)) {
        Arc::make_mut(&mut self.0).push(key, row.as_ref());
    }

    /// A copy with every component multiplied by `factor` (`-1.0`: the
    /// deltas that undo these).
    pub fn scaled(&self, factor: f32) -> Self {
        let mut rows = Rows::clone(&self.0);
        kernels::scale(&mut rows.data, factor);
        Values::from_rows(rows)
    }

    /// Logical wire size: each pair ships its row plus an 8-byte key,
    /// exactly what the per-key path would ship pair by pair. Sharing
    /// the buffer across duplicated/delayed messages does not change
    /// the per-message volume reported here.
    pub fn wire_bytes(&self) -> usize {
        self.0.data.len() * std::mem::size_of::<f32>()
            + self.0.keys.len() * std::mem::size_of::<u64>()
    }
}

impl<V> Default for Values<V> {
    fn default() -> Self {
        Values(Arc::default(), PhantomData)
    }
}

impl<V> Clone for Values<V> {
    fn clone(&self) -> Self {
        Values(Arc::clone(&self.0), PhantomData)
    }
}

impl<R: AsRef<[f32]>> FromIterator<(ParamKey, R)> for Values<DenseVec> {
    fn from_iter<I: IntoIterator<Item = (ParamKey, R)>>(iter: I) -> Self {
        let mut rows = Rows::default();
        for (key, row) in iter {
            rows.push(key, row.as_ref());
        }
        Values::from_rows(rows)
    }
}

/// Owned pairs, one [`DenseVec`] each: for consumers that keep rows
/// apart (a model snapshot); the data plane iterates by reference.
impl IntoIterator for Values<DenseVec> {
    type Item = (ParamKey, DenseVec);
    type IntoIter = std::vec::IntoIter<(ParamKey, DenseVec)>;

    fn into_iter(self) -> Self::IntoIter {
        let pairs: Vec<_> = self
            .iter()
            .map(|(k, row)| (k, DenseVec::from(row.to_vec())))
            .collect();
        pairs.into_iter()
    }
}

impl<'a> IntoIterator for &'a Values<DenseVec> {
    type Item = (ParamKey, &'a [f32]);
    type IntoIter = ValuesIter<'a>;

    fn into_iter(self) -> ValuesIter<'a> {
        self.iter()
    }
}

/// The pairs of a [`Values`], in push order.
#[derive(Debug, Clone)]
pub struct ValuesIter<'a> {
    rows: &'a Rows,
    next: usize,
    start: usize,
}

impl<'a> Iterator for ValuesIter<'a> {
    type Item = (ParamKey, &'a [f32]);

    fn next(&mut self) -> Option<Self::Item> {
        let key = *self.rows.keys.get(self.next)?;
        let end = self.rows.ends[self.next];
        let row = &self.rows.data[self.start..end];
        self.next += 1;
        self.start = end;
        Some((key, row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.keys.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ValuesIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Values<DenseVec> {
        vec![
            (ParamKey(1), DenseVec::from(vec![1.0, 2.0])),
            (ParamKey(5), DenseVec::from(vec![3.0])),
        ]
        .into_iter()
        .collect()
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
    fn rows_are_views_of_the_one_buffer() {
        let v = sample();
        let dup = v.clone();
        let (a, b) = (v.iter().next().unwrap().1, dup.iter().next().unwrap().1);
        assert_eq!(a.as_ptr(), b.as_ptr(), "a clone must share the rows");
        let rows: Vec<&[f32]> = v.iter().map(|(_, row)| row).collect();
        assert_eq!(
            rows[0].as_ptr_range().end,
            rows[1].as_ptr(),
            "rows lie back to back"
        );
    }

    #[test]
    fn iteration_and_indexing_work_through_deref() {
        let v = sample();
        assert_eq!(v.iter().next().unwrap().0, ParamKey(1));
        let keys: Vec<ParamKey> = v.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![ParamKey(1), ParamKey(5)]);
        let consumed: Vec<(ParamKey, DenseVec)> = v.clone().into_iter().collect();
        assert_eq!(consumed.len(), 2);
        assert_eq!(consumed[1].1.as_slice(), &[3.0]);
        for (k, _) in &v {
            assert!(k.0 >= 1);
        }
        assert_eq!(v.iter().len(), 2);
    }

    #[test]
    fn scaled_negates_without_touching_the_original() {
        let v = sample();
        let neg = v.scaled(-1.0);
        let rows: Vec<&[f32]> = neg.iter().map(|(_, row)| row).collect();
        assert_eq!(rows, vec![&[-1.0, -2.0][..], &[-3.0][..]]);
        assert_eq!(v.iter().next().unwrap().1, &[1.0, 2.0]);
    }
}
