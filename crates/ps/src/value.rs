//! The dense parameter row: an `f32` vector with component-wise-add
//! aggregation.

use std::sync::Arc;

/// A dense `f32` vector with component-wise-add aggregation.
///
/// This is the owned row of a model snapshot, an app's initial values
/// and the checkpoint codec; the data plane ships rows flat, in
/// [`Values`](crate::Values). The components live behind an [`Arc`], so
/// cloning a `DenseVec` is a reference-count bump, not a buffer copy.
/// Mutation goes through [`Arc::make_mut`] (copy-on-write): a uniquely
/// owned vector mutates in place; a shared one is copied exactly once
/// and is unique from then on.
///
/// # Examples
///
/// ```
/// use proteus_ps::DenseVec;
///
/// let mut row = DenseVec::from(vec![1.5, 2.0, 2.0]);
///
/// // Clones share the buffer until one side writes.
/// let snapshot = row.clone();
/// assert!(row.shares_buffer(&snapshot));
/// row.as_mut_slice()[0] = 3.0;
/// assert!(!row.shares_buffer(&snapshot));
/// assert_eq!(snapshot.as_slice(), &[1.5, 2.0, 2.0]);
/// assert_eq!(row.as_slice(), &[3.0, 2.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct DenseVec(Arc<Vec<f32>>);

impl DenseVec {
    /// A zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        DenseVec(Arc::new(vec![0.0; dim]))
    }

    /// The vector's dimension.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Read-only view of the components.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutable view of the components (copy-on-write: unshares first).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.0).as_mut_slice()
    }

    /// Whether `self` and `other` share one underlying buffer (i.e. one
    /// is a zero-copy clone of the other). Diagnostic/test helper for
    /// the zero-copy messaging invariants.
    pub fn shares_buffer(&self, other: &DenseVec) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Logical wire size in bytes: what shipping this row over a real
    /// network would cost, independent of in-memory representation.
    pub fn wire_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<f32>()
    }
}

impl From<Vec<f32>> for DenseVec {
    fn from(v: Vec<f32>) -> Self {
        DenseVec(Arc::new(v))
    }
}

impl AsRef<[f32]> for DenseVec {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

impl PartialEq for DenseVec {
    fn eq(&self, other: &Self) -> bool {
        self.shares_buffer(other) || self.0 == other.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use proptest::prelude::*;

    /// Folds `delta` into `row` the way the shard store folds an update
    /// into a stored row: component-wise addition through the row's
    /// copy-on-write slice, so updates from different workers may be
    /// applied in any order.
    fn merge(row: &mut DenseVec, delta: &DenseVec) {
        kernels::add_assign(row.as_mut_slice(), delta.as_slice());
    }

    #[test]
    fn merge_is_componentwise_add() {
        let mut a = DenseVec::from(vec![1.0, -2.0]);
        merge(&mut a, &DenseVec::from(vec![0.5, 2.0]));
        assert_eq!(a.as_slice(), &[1.5, 0.0]);
    }

    #[test]
    fn wire_bytes_scales_with_dim() {
        assert_eq!(DenseVec::zeros(100).wire_bytes(), 400);
    }

    #[test]
    fn clone_shares_until_write() {
        let a = DenseVec::from(vec![1.0, 2.0]);
        let mut b = a.clone();
        assert!(a.shares_buffer(&b), "clone must be zero-copy");
        merge(&mut b, &DenseVec::from(vec![1.0, 1.0]));
        assert!(!a.shares_buffer(&b), "write must unshare");
        assert_eq!(a.as_slice(), &[1.0, 2.0], "original untouched");
        assert_eq!(b.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn unique_merge_mutates_in_place() {
        let mut a = DenseVec::from(vec![1.0; 16]);
        let before = a.as_slice().as_ptr();
        merge(&mut a, &DenseVec::from(vec![2.0; 16]));
        assert_eq!(
            a.as_slice().as_ptr(),
            before,
            "uniquely owned buffer must not be reallocated by merge"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = DenseVec::zeros(2);
        merge(&mut a, &DenseVec::zeros(3));
    }

    fn vec_strategy(dim: usize) -> impl Strategy<Value = DenseVec> {
        proptest::collection::vec(-100.0f32..100.0, dim).prop_map(DenseVec::from)
    }

    proptest! {
        #[test]
        fn merge_commutes(a in vec_strategy(8), b in vec_strategy(8)) {
            let mut ab = a.clone();
            merge(&mut ab, &b);
            let mut ba = b.clone();
            merge(&mut ba, &a);
            for (x, y) in ab.as_slice().iter().zip(ba.as_slice()) {
                prop_assert!((x - y).abs() <= f32::EPSILON * x.abs().max(1.0));
            }
        }

        #[test]
        fn merge_associates(a in vec_strategy(8), b in vec_strategy(8), c in vec_strategy(8)) {
            // (a+b)+c vs a+(b+c): fp-exact for addition order of two sums
            // is not guaranteed in general, but component-wise addition of
            // three f32s in either grouping differs by at most one ulp of
            // the result; allow a tolerance.
            let mut left = a.clone();
            merge(&mut left, &b);
            merge(&mut left, &c);
            let mut bc = b.clone();
            merge(&mut bc, &c);
            let mut right = a.clone();
            merge(&mut right, &bc);
            for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
                prop_assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
            }
        }

        #[test]
        fn zero_is_identity(a in vec_strategy(8)) {
            let mut merged = a.clone();
            merge(&mut merged, &DenseVec::zeros(a.dim()));
            prop_assert_eq!(merged.as_slice(), a.as_slice());
        }
    }
}
