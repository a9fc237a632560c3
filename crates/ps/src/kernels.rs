//! Explicit-width chunked slice kernels for the dense hot paths.
//!
//! Every routine but `lincomb_step` (see there) walks its operands in
//! fixed-width chunks (`LANES` elements) with an index loop whose
//! bound is a compile-time constant,
//! which is the shape LLVM reliably turns into packed SIMD (`f32x8` on
//! AVX2, two `f32x4` ops on NEON/SSE) on stable Rust — no nightly
//! features, no intrinsics, no `unsafe`. The scalar remainder handles
//! the final `len % LANES` elements.
//!
//! Element-wise kernels (`add_assign`, `axpy`, `scale`, `lincomb`,
//! `lincomb_step`) compute bit-identical results to their scalar
//! loops: each output lane depends only on the same input lane, so
//! chunking changes nothing about rounding. Reductions (`dot`,
//! `norm_sq`, `dist_sq`) use `LANES` parallel accumulators folded with
//! a fixed pairwise tree, which *does* reorder the floating-point sum
//! relative to a sequential fold — deterministically, the same way on
//! every run and thread count, so simulation reproducibility is
//! preserved even though the low bits differ from a naive loop.

/// Chunk width for `f32` kernels: 8 lanes = one AVX2 register.
const LANES: usize = 8;

/// `a[i] += b[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "length mismatch in add_assign");
    let mut ca = a.chunks_exact_mut(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            xa[i] += xb[i];
        }
    }
    for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        *x += y;
    }
}

/// `a[i] += s * b[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(a: &mut [f32], s: f32, b: &[f32]) {
    assert_eq!(a.len(), b.len(), "length mismatch in axpy");
    let mut ca = a.chunks_exact_mut(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            xa[i] += s * xb[i];
        }
    }
    for (x, y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        *x += s * y;
    }
}

/// `a[i] *= s` for all `i`.
pub fn scale(a: &mut [f32], s: f32) {
    let mut ca = a.chunks_exact_mut(LANES);
    for xa in ca.by_ref() {
        for x in xa.iter_mut() {
            *x *= s;
        }
    }
    for x in ca.into_remainder() {
        *x *= s;
    }
}

/// The fused linear combination `out[i] = s * x[i] + t * y[i]`, written
/// into `out` — one pass where `clone` + `scale` + `axpy` would take
/// three, and no temporary.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn lincomb(out: &mut [f32], s: f32, x: &[f32], t: f32, y: &[f32]) {
    assert_eq!(x.len(), y.len(), "length mismatch in lincomb");
    assert_eq!(out.len(), x.len(), "length mismatch in lincomb");
    let mut co = out.chunks_exact_mut(LANES);
    let mut cx = x.chunks_exact(LANES);
    let mut cy = y.chunks_exact(LANES);
    for ((xo, xx), xy) in co.by_ref().zip(cx.by_ref()).zip(cy.by_ref()) {
        for i in 0..LANES {
            xo[i] = s * xx[i] + t * xy[i];
        }
    }
    for ((o, xv), yv) in co
        .into_remainder()
        .iter_mut()
        .zip(cx.remainder())
        .zip(cy.remainder())
    {
        *o = s * xv + t * yv;
    }
}

/// The in-place SGD step: with `d[i] = s * x[i] + t * row[i]`, adds `d`
/// to both `row` and `acc` in one pass. Bit-identical to [`lincomb`]
/// into a temporary followed by two [`add_assign`]s.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn lincomb_step(row: &mut [f32], acc: &mut [f32], s: f32, x: &[f32], t: f32) {
    assert_eq!(row.len(), x.len(), "length mismatch in lincomb_step");
    assert_eq!(acc.len(), x.len(), "length mismatch in lincomb_step");
    // Not chunked like its neighbours: with two read-modify-write
    // streams LLVM vectorizes the chunked shape *across* chunks,
    // gathering lanes one scalar load at a time (3x slower at 512
    // wide); the plain zip becomes straight packed loads and stores.
    for ((r, a), xv) in row.iter_mut().zip(acc.iter_mut()).zip(x) {
        let d = s * xv + t * *r;
        *r += d;
        *a += d;
    }
}

/// Folds `LANES` partial accumulators with a fixed pairwise tree so the
/// reduction order is deterministic and independent of slice length.
#[inline]
fn reduce(acc: [f32; LANES]) -> f32 {
    let p = [
        acc[0] + acc[4],
        acc[1] + acc[5],
        acc[2] + acc[6],
        acc[3] + acc[7],
    ];
    (p[0] + p[2]) + (p[1] + p[3])
}

/// The dot product `Σ a[i] * b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch in dot");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..LANES {
            acc[i] += xa[i] * xb[i];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce(acc) + tail
}

/// The squared L2 norm `Σ a[i]²`.
pub fn norm_sq(a: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    for xa in ca.by_ref() {
        for i in 0..LANES {
            acc[i] += xa[i] * xa[i];
        }
    }
    let mut tail = 0.0f32;
    for x in ca.remainder() {
        tail += x * x;
    }
    reduce(acc) + tail
}

/// The squared Euclidean distance `Σ (a[i] - b[i])²`, accumulated in
/// `f64` (k-means sums many small squares; `f32` accumulation loses
/// digits at paper-scale dimensions).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dist_sq(a: &[f32], b: &[f32]) -> f64 {
    const DLANES: usize = 4;
    assert_eq!(a.len(), b.len(), "length mismatch in dist_sq");
    let mut acc = [0.0f64; DLANES];
    let mut ca = a.chunks_exact(DLANES);
    let mut cb = b.chunks_exact(DLANES);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..DLANES {
            let d = f64::from(xa[i]) - f64::from(xb[i]);
            acc[i] += d * d;
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = f64::from(*x) - f64::from(*y);
        tail += d * d;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn slice_strategy(max: usize) -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(-100.0f32..100.0, 0..max)
    }

    #[test]
    fn elementwise_kernels_match_scalar_loops_exactly() {
        // 19 elements: two full chunks plus a 3-element remainder.
        let a0: Vec<f32> = (0..19).map(|i| i as f32 * 0.37 - 3.0).collect();
        let b: Vec<f32> = (0..19).map(|i| 1.0 - i as f32 * 0.21).collect();

        let mut a = a0.clone();
        add_assign(&mut a, &b);
        let expect: Vec<f32> = a0.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(a, expect, "add_assign must be bit-identical to scalar");

        let mut a = a0.clone();
        axpy(&mut a, 2.5, &b);
        let expect: Vec<f32> = a0.iter().zip(&b).map(|(x, y)| x + 2.5 * y).collect();
        assert_eq!(a, expect, "axpy must be bit-identical to scalar");

        let mut a = a0.clone();
        scale(&mut a, -1.5);
        let expect: Vec<f32> = a0.iter().map(|x| x * -1.5).collect();
        assert_eq!(a, expect, "scale must be bit-identical to scalar");

        let mut out = vec![0.0f32; 19];
        lincomb(&mut out, 0.5, &a0, -2.0, &b);
        let expect: Vec<f32> = a0.iter().zip(&b).map(|(x, y)| 0.5 * x + -2.0 * y).collect();
        assert_eq!(out, expect, "lincomb must be bit-identical to scalar");

        // The fused step equals lincomb into a temporary + two adds.
        let (mut row, mut acc) = (a0.clone(), b.clone());
        lincomb_step(&mut row, &mut acc, 0.5, &b, -2.0);
        let mut d = vec![0.0f32; 19];
        lincomb(&mut d, 0.5, &b, -2.0, &a0);
        let (mut row2, mut acc2) = (a0.clone(), b.clone());
        add_assign(&mut row2, &d);
        add_assign(&mut acc2, &d);
        assert_eq!(
            (row, acc),
            (row2, acc2),
            "lincomb_step must equal its parts"
        );
    }

    #[test]
    fn reductions_are_close_to_sequential() {
        let a: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32).cos()).collect();
        let seq_dot: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - seq_dot).abs() <= 1e-3 * seq_dot.abs().max(1.0));
        let seq_norm: f32 = a.iter().map(|x| x * x).sum();
        assert!((norm_sq(&a) - seq_norm).abs() <= 1e-3 * seq_norm.max(1.0));
        let seq_dist: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| {
                let d = f64::from(*x) - f64::from(*y);
                d * d
            })
            .sum();
        assert!((dist_sq(&a, &b) - seq_dist).abs() <= 1e-9 * seq_dist.max(1.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_length_mismatch() {
        let _ = dot(&[1.0, 2.0], &[1.0]);
    }

    proptest! {
        #[test]
        fn dot_is_deterministic_and_length_safe(a in slice_strategy(40)) {
            let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            prop_assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
            prop_assert_eq!(norm_sq(&a).to_bits(), norm_sq(&a).to_bits());
        }

        #[test]
        fn add_assign_matches_scalar(a in slice_strategy(40)) {
            let b: Vec<f32> = a.iter().map(|x| 1.0 - x).collect();
            let mut chunked = a.clone();
            add_assign(&mut chunked, &b);
            let scalar: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            prop_assert_eq!(chunked, scalar);
        }

        #[test]
        fn dist_sq_is_nonnegative_and_symmetric(a in slice_strategy(40)) {
            let b: Vec<f32> = a.iter().map(|x| x * -0.3).collect();
            let d = dist_sq(&a, &b);
            prop_assert!(d >= 0.0);
            prop_assert_eq!(d.to_bits(), dist_sq(&b, &a).to_bits());
        }
    }
}
