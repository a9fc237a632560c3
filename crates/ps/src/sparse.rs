//! A sparse parameter value for high-dimensional models.
//!
//! MLR over LLC features (the paper's 21 504-dimensional weights) and
//! similar models produce updates touching few coordinates; shipping
//! dense deltas wastes the network the tiered architecture is trying to
//! protect. [`SparseVec`] stores `(index, value)` pairs sorted by index
//! and merges by index union — still commutative and associative, so it
//! satisfies the [`PsValue`] contract.

use crate::value::PsValue;

/// A sparse vector: sorted `(index, value)` pairs over a logical
/// dimension.
///
/// # Examples
///
/// ```
/// use proteus_ps::sparse::SparseVec;
/// use proteus_ps::PsValue;
///
/// let mut a = SparseVec::new(8, vec![(1, 2.0), (5, 1.0)]).unwrap();
/// let b = SparseVec::new(8, vec![(1, -2.0), (3, 4.0)]).unwrap();
/// a.merge(&b);
/// assert_eq!(a.get(1), 0.0);
/// assert_eq!(a.get(3), 4.0);
/// assert_eq!(a.get(5), 1.0);
/// assert_eq!(a.nnz(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    dim: usize,
    /// Sorted by index, indices strictly increasing, no explicit zeros
    /// are *required* (merging may create them; they are kept — exact
    /// cancellation is rare in float workloads and pruning would cost a
    /// pass per merge).
    entries: Vec<(u32, f32)>,
}

impl SparseVec {
    /// Creates a sparse vector over logical dimension `dim`.
    ///
    /// Returns `None` if any index is out of range, indices are not
    /// strictly increasing, or a value is non-finite.
    pub fn new(dim: usize, entries: Vec<(u32, f32)>) -> Option<Self> {
        for w in entries.windows(2) {
            if w[1].0 <= w[0].0 {
                return None;
            }
        }
        if entries
            .iter()
            .any(|(i, v)| *i as usize >= dim || !v.is_finite())
        {
            return None;
        }
        Some(SparseVec { dim, entries })
    }

    /// The all-zero sparse vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        SparseVec {
            dim,
            entries: Vec::new(),
        }
    }

    /// Logical dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The value at `index` (zero when absent).
    pub fn get(&self, index: u32) -> f32 {
        match self.entries.binary_search_by_key(&index, |(i, _)| *i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// The stored entries, sorted by index.
    pub fn entries(&self) -> &[(u32, f32)] {
        &self.entries
    }

    /// Materializes to a dense coordinate vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in &self.entries {
            out[*i as usize] = *v;
        }
        out
    }
}

impl PsValue for SparseVec {
    fn merge(&mut self, delta: &Self) {
        assert_eq!(
            self.dim, delta.dim,
            "dimension mismatch merging sparse values"
        );
        // Sorted two-way merge.
        let mut out = Vec::with_capacity(self.entries.len() + delta.entries.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.entries.len() && j < delta.entries.len() {
            let (ai, av) = self.entries[i];
            let (bi, bv) = delta.entries[j];
            match ai.cmp(&bi) {
                std::cmp::Ordering::Less => {
                    out.push((ai, av));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((bi, bv));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push((ai, av + bv));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.entries[i..]);
        out.extend_from_slice(&delta.entries[j..]);
        self.entries = out;
    }

    fn zero_like(&self) -> Self {
        SparseVec::zeros(self.dim)
    }

    fn wire_bytes(&self) -> usize {
        self.entries.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert!(SparseVec::new(4, vec![(0, 1.0), (3, 2.0)]).is_some());
        assert!(
            SparseVec::new(4, vec![(3, 1.0), (0, 2.0)]).is_none(),
            "unsorted"
        );
        assert!(
            SparseVec::new(4, vec![(1, 1.0), (1, 2.0)]).is_none(),
            "duplicate"
        );
        assert!(SparseVec::new(4, vec![(4, 1.0)]).is_none(), "out of range");
        assert!(
            SparseVec::new(4, vec![(0, f32::NAN)]).is_none(),
            "non-finite"
        );
    }

    #[test]
    fn merge_unions_indices() {
        let mut a = SparseVec::new(6, vec![(0, 1.0), (2, 2.0)]).unwrap();
        let b = SparseVec::new(6, vec![(2, 3.0), (5, -1.0)]).unwrap();
        a.merge(&b);
        assert_eq!(a.entries(), &[(0, 1.0), (2, 5.0), (5, -1.0)]);
        assert_eq!(a.to_dense(), vec![1.0, 0.0, 5.0, 0.0, 0.0, -1.0]);
    }

    #[test]
    fn wire_bytes_tracks_nnz_not_dim() {
        let v = SparseVec::new(1_000_000, vec![(5, 1.0), (999, 2.0)]).unwrap();
        assert_eq!(v.wire_bytes(), 16);
    }

    fn sparse_strategy(dim: usize) -> impl Strategy<Value = SparseVec> {
        proptest::collection::btree_map(0u32..(dim as u32), -100.0f32..100.0, 0..8).prop_map(
            move |m| {
                SparseVec::new(dim, m.into_iter().collect()).expect("btree map keys are sorted")
            },
        )
    }

    proptest! {
        #[test]
        fn merge_matches_dense_addition(a in sparse_strategy(16), b in sparse_strategy(16)) {
            let dense: Vec<f32> = a
                .to_dense()
                .iter()
                .zip(b.to_dense().iter())
                .map(|(x, y)| x + y)
                .collect();
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert_eq!(merged.to_dense(), dense);
        }

        #[test]
        fn merge_commutes(a in sparse_strategy(16), b in sparse_strategy(16)) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.to_dense(), ba.to_dense());
        }

        #[test]
        fn zero_is_identity(a in sparse_strategy(16)) {
            let mut merged = a.clone();
            merged.merge(&a.zero_like());
            prop_assert_eq!(merged.entries(), a.entries());
        }

        #[test]
        fn indices_stay_sorted_after_merge(a in sparse_strategy(16), b in sparse_strategy(16)) {
            let mut merged = a;
            merged.merge(&b);
            for w in merged.entries().windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
        }
    }
}
