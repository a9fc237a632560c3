//! Chunked slice kernels for the dense hot paths, with AVX2 twins
//! picked at run time.
//!
//! # What runs where
//!
//! Every kernel has a *portable* body in safe Rust. Most walk their
//! operands in fixed-width chunks (`LANES` = 8 elements) with a
//! compile-time loop bound, then a scalar remainder for the last `len %
//! LANES`; `lincomb_step` is a plain zipped loop (see there). The build
//! targets the architecture's baseline only, so on the default `x86_64`
//! target (SSE2) a chunk compiles to two 4-wide SSE ops and on `aarch64`
//! to two NEON ops.
//!
//! The three kernels MLR's worker pass is made of also have an *AVX2
//! twin* on `x86_64`, written with `std::arch::x86_64` intrinsics: one
//! 256-bit register per chunk. The pass is software-pipelined over a
//! run of examples: [`dot`] gives the run's first logits,
//! [`lincomb_step_dot`] applies example `i`'s step to `w_k` and returns
//! the updated `w_k`'s logit for example `i + 1` (one read of the row
//! for both), and [`lincomb_step`] is the run's last step. On a row of
//! at least `TWIN_MIN_LEN` (64) floats, each asks
//! `is_x86_feature_detected!("avx2")` (std detects once per process and
//! caches the answer) and calls the twin when the CPU has AVX2. Shorter
//! rows, CPUs without AVX2 and other architectures run the portable
//! body; other architectures compile no twin. No build flag, cargo
//! feature or environment variable is involved.
//!
//! The length floor exists because a twin is an out-of-line call: code
//! compiled for the baseline cannot inline an AVX2 function. At MLR's
//! 512-wide rows the wider chunks repay the call many times over; at
//! MF's 16-wide rows they do not, so those keep the inlined portable
//! loop they had. The twinned kernels are `#[inline(always)]` for the
//! same reason: with the dispatch in its body LLVM stopped inlining
//! `dot` into MF's step, which cost `train_mf` about 3 %. Every other
//! kernel, and the worker cache's two-key step, is portable only: off
//! MLR's pass, or measured no faster end to end as a twin (`lincomb`;
//! `add_assign`, whose twin sped the server's 512-wide apply up but
//! slowed `train_mf`; the two-key step at MF's rank 16).
//!
//! # Why both paths give the same bits
//!
//! The twins multiply and add, never fuse: Rust does not contract `a *
//! b + c` into an FMA, the twins call no FMA intrinsic, and
//! `scripts/check.sh` fails on one in `ps` or `mlapps`. Each output lane
//! of an element-wise kernel is then the same IEEE computation on the
//! same inputs, whatever the register width. The reductions keep `LANES`
//! accumulators (lane `i` sums elements `i`, `i + 8`, … in order) folded
//! by the one `reduce` tree; a twin holds the same eight accumulators in
//! one register and calls the same `reduce`. The fused kernel is the
//! step's lanes, then the dot's accumulator on each chunk just stored;
//! its portable body is the portable step followed by the portable dot.
//! The unit tests compare each twin with its portable body bit for bit,
//! and the fused kernel with the two portable calls (every `len % 8`,
//! signed zeros, subnormals, huge magnitudes, NaN payloads). The one
//! exception is a NaN's payload where two NaNs meet in one operation:
//! Rust leaves it unspecified, for the portable loop alone too.
//!
//! The element-wise kernels are bit-identical to plain scalar loops. The
//! reductions reorder the sum relative to a sequential fold —
//! deterministically, the same on every run, thread count and CPU — so
//! simulations replay bit for bit although the low bits differ from a
//! naive loop.
//!
//! # `unsafe`
//!
//! The one `unsafe` dispatch site is the private `dispatch!` macro every
//! twinned kernel expands: it calls an AVX2 function only after
//! `is_x86_feature_detected!("avx2")` returned true, which is all such a
//! call requires. The twins' only other `unsafe` is one unaligned load
//! from and one store to an `[f32; 8]` they borrow.

/// Chunk width for `f32` kernels: 8 lanes = one AVX2 register.
const LANES: usize = 8;

/// The shortest row that takes a twin: below it the out-of-line call
/// costs more than the wider chunks save (measured on `dot` and
/// `lincomb_step` from 16 to 512 floats).
const TWIN_MIN_LEN: usize = 64;

/// Evaluates `$twin` (a call into `avx2`) when the row is `$len >=
/// TWIN_MIN_LEN` floats long and the CPU has AVX2, and `$portable`
/// otherwise.
macro_rules! dispatch {
    ($len:expr, $twin:expr, $portable:expr) => {{
        #[cfg(target_arch = "x86_64")]
        if $len >= TWIN_MIN_LEN && std::is_x86_feature_detected!("avx2") {
            // SAFETY: the twins need AVX2 and nothing else, and the CPU
            // running this has it (checked just above).
            return unsafe { $twin };
        }
        $portable
    }};
}

/// `a[i] += b[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
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
#[inline]
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
#[inline]
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
#[inline]
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
#[inline(always)]
pub fn lincomb_step(row: &mut [f32], acc: &mut [f32], s: f32, x: &[f32], t: f32) {
    assert_eq!(row.len(), x.len(), "length mismatch in lincomb_step");
    assert_eq!(acc.len(), x.len(), "length mismatch in lincomb_step");
    dispatch!(
        row.len(),
        avx2::lincomb_step(row, acc, s, x, t),
        portable::lincomb_step(row, acc, s, x, t)
    )
}

/// [`lincomb_step`], then the [`dot`] of the updated `row` with `next`,
/// in one pass over `row`: MLR's step on `w_k` fused with the next
/// example's logit for class `k`. Bit-identical to the two calls.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline(always)]
pub fn lincomb_step_dot(
    row: &mut [f32],
    acc: &mut [f32],
    s: f32,
    x: &[f32],
    t: f32,
    next: &[f32],
) -> f32 {
    assert_eq!(row.len(), x.len(), "length mismatch in lincomb_step_dot");
    assert_eq!(acc.len(), x.len(), "length mismatch in lincomb_step_dot");
    assert_eq!(next.len(), x.len(), "length mismatch in lincomb_step_dot");
    dispatch!(
        row.len(),
        avx2::lincomb_step_dot(row, acc, s, x, t, next),
        portable::lincomb_step_dot(row, acc, s, x, t, next)
    )
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
#[inline(always)]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch in dot");
    dispatch!(a.len(), avx2::dot(a, b), portable::dot(a, b))
}

/// The squared L2 norm `Σ a[i]²`.
#[inline]
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

/// The portable bodies of the twinned kernels: the fallback off AVX2,
/// and the reference each twin is tested against. Lengths are checked
/// by the public kernels.
mod portable {
    use super::{reduce, LANES};

    #[inline]
    pub fn lincomb_step(row: &mut [f32], acc: &mut [f32], s: f32, x: &[f32], t: f32) {
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

    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
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

    #[inline]
    pub fn lincomb_step_dot(
        row: &mut [f32],
        acc: &mut [f32],
        s: f32,
        x: &[f32],
        t: f32,
        next: &[f32],
    ) -> f32 {
        lincomb_step(row, acc, s, x, t);
        dot(row, next)
    }
}

/// The AVX2 twins: each is its portable body with one 256-bit register
/// per chunk and the same scalar remainder. Safe functions, but only
/// callable through `dispatch!` outside an AVX2 function.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    use super::{reduce, LANES};

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(c: &[f32; LANES]) -> __m256 {
        // SAFETY: reads the eight floats `c` borrows; no alignment needed.
        unsafe { _mm256_loadu_ps(c.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(c: &mut [f32; LANES], v: __m256) {
        // SAFETY: writes the eight floats `c` borrows mutably.
        unsafe { _mm256_storeu_ps(c.as_mut_ptr(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn lincomb_step(row: &mut [f32], acc: &mut [f32], s: f32, x: &[f32], t: f32) {
        let (vs, vt) = (_mm256_set1_ps(s), _mm256_set1_ps(t));
        let (cr, rr) = row.as_chunks_mut::<LANES>();
        let (ca, ra) = acc.as_chunks_mut::<LANES>();
        let (cx, rx) = x.as_chunks::<LANES>();
        for ((xr, xa), xx) in cr.iter_mut().zip(ca.iter_mut()).zip(cx) {
            let r = load(xr);
            let d = _mm256_add_ps(_mm256_mul_ps(vs, load(xx)), _mm256_mul_ps(vt, r));
            store(xr, _mm256_add_ps(r, d));
            store(xa, _mm256_add_ps(load(xa), d));
        }
        super::portable::lincomb_step(rr, ra, s, rx, t);
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let (ca, ra) = a.as_chunks::<LANES>();
        let (cb, rb) = b.as_chunks::<LANES>();
        let mut acc = _mm256_setzero_ps();
        for (xa, xb) in ca.iter().zip(cb) {
            acc = _mm256_add_ps(acc, _mm256_mul_ps(load(xa), load(xb)));
        }
        let mut tail = 0.0f32;
        for (x, y) in ra.iter().zip(rb) {
            tail += x * y;
        }
        let mut lanes = [0.0f32; LANES];
        store(&mut lanes, acc);
        reduce(lanes) + tail
    }

    /// `lincomb_step`'s chunk, then `dot`'s on the chunk just stored:
    /// lane `i` of `sum` adds `row[i] * next[i]` of the updated row, in
    /// chunk order, as `dot`'s accumulator does.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn lincomb_step_dot(
        row: &mut [f32],
        acc: &mut [f32],
        s: f32,
        x: &[f32],
        t: f32,
        next: &[f32],
    ) -> f32 {
        let (vs, vt) = (_mm256_set1_ps(s), _mm256_set1_ps(t));
        let (cr, rr) = row.as_chunks_mut::<LANES>();
        let (ca, ra) = acc.as_chunks_mut::<LANES>();
        let (cx, rx) = x.as_chunks::<LANES>();
        let (cn, rn) = next.as_chunks::<LANES>();
        let mut sum = _mm256_setzero_ps();
        for (((xr, xa), xx), xn) in cr.iter_mut().zip(ca.iter_mut()).zip(cx).zip(cn) {
            let r = load(xr);
            let d = _mm256_add_ps(_mm256_mul_ps(vs, load(xx)), _mm256_mul_ps(vt, r));
            let r = _mm256_add_ps(r, d);
            store(xr, r);
            store(xa, _mm256_add_ps(load(xa), d));
            sum = _mm256_add_ps(sum, _mm256_mul_ps(r, load(xn)));
        }
        super::portable::lincomb_step(rr, ra, s, rx, t);
        let mut tail = 0.0f32;
        for (r, n) in rr.iter().zip(rn) {
            tail += r * n;
        }
        let mut lanes = [0.0f32; LANES];
        store(&mut lanes, sum);
        reduce(lanes) + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

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

    /// Components that stress bit-identity: signed zeros, subnormals,
    /// magnitudes that overflow when summed, infinities, and NaNs with
    /// distinct payloads and signs (one signalling).
    const SPECIALS: [f32; 14] = [
        0.0,
        -0.0,
        1.0e-45,
        -1.0e-40,
        f32::MIN_POSITIVE,
        3.0e38,
        -2.5e38,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffc0_0042),
        f32::from_bits(0x7f80_0007),
    ];

    /// `len` components, about one in `1 << sparsity` drawn from the
    /// first `specials` of `SPECIALS` and the rest from `-100..100`.
    fn mixed(len: usize, sparsity: u32, specials: usize, rng: &mut TestRng) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let r = rng.next_u64();
                if r.is_multiple_of(1 << sparsity) {
                    SPECIALS[(r >> 8) as usize % specials]
                } else {
                    (rng.unit_f64() * 200.0 - 100.0) as f32
                }
            })
            .collect()
    }

    /// The bits of each component, every NaN folded to one pattern when
    /// `fold_nan`. Where two NaNs meet in one operation Rust leaves the
    /// result's payload unspecified, so the compiler may pick either
    /// input's for the same source on two paths.
    fn bits(xs: &[f32], fold_nan: bool) -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        xs.iter()
            .map(|x| {
                if fold_nan && x.is_nan() {
                    nan
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// The twins at any length, through the kernels' own `dispatch!`:
    /// the portable bodies again on a CPU without AVX2.
    mod twin {
        use super::super::*;

        pub fn lincomb_step(row: &mut [f32], acc: &mut [f32], s: f32, x: &[f32], t: f32) {
            dispatch!(
                usize::MAX,
                avx2::lincomb_step(row, acc, s, x, t),
                portable::lincomb_step(row, acc, s, x, t)
            )
        }

        pub fn dot(a: &[f32], b: &[f32]) -> f32 {
            dispatch!(usize::MAX, avx2::dot(a, b), portable::dot(a, b))
        }

        pub fn lincomb_step_dot(
            row: &mut [f32],
            acc: &mut [f32],
            s: f32,
            x: &[f32],
            t: f32,
            next: &[f32],
        ) -> f32 {
            dispatch!(
                usize::MAX,
                avx2::lincomb_step_dot(row, acc, s, x, t, next),
                portable::lincomb_step_dot(row, acc, s, x, t, next)
            )
        }
    }

    /// Every twinned kernel against its portable body: the twin itself
    /// (at every length) and the public kernel (the twin from
    /// `TWIN_MIN_LEN` up, on an AVX2 CPU). The fused step is checked
    /// against the two portable calls it stands for. `x` may hold NaNs,
    /// the other inputs none; with `fold_nan` false, NaN payloads must
    /// match too.
    fn twins_match_portable([x, y, z, w]: &[Vec<f32>; 4], (s, t): (f32, f32), fold_nan: bool) {
        let bits = |v: &[f32]| bits(v, fold_nan);
        let ctx = format!("len {}, s {s}, t {t}", x.len());
        for forced in [true, false] {
            let ctx = format!("{ctx}, twin forced {forced}");

            let (mut ra, mut aa, mut rb, mut ab) = (x.clone(), z.clone(), x.clone(), z.clone());
            if forced {
                twin::lincomb_step(&mut ra, &mut aa, s, y, t);
            } else {
                lincomb_step(&mut ra, &mut aa, s, y, t);
            }
            portable::lincomb_step(&mut rb, &mut ab, s, y, t);
            assert_eq!(
                (bits(&ra), bits(&aa)),
                (bits(&rb), bits(&ab)),
                "lincomb_step, {ctx}"
            );

            let d = if forced { twin::dot(x, y) } else { dot(x, y) };
            assert_eq!(bits(&[d]), bits(&[portable::dot(x, y)]), "dot, {ctx}");

            let (mut ra, mut aa, mut rb, mut ab) = (x.clone(), z.clone(), x.clone(), z.clone());
            let da = if forced {
                twin::lincomb_step_dot(&mut ra, &mut aa, s, y, t, w)
            } else {
                lincomb_step_dot(&mut ra, &mut aa, s, y, t, w)
            };
            portable::lincomb_step(&mut rb, &mut ab, s, y, t);
            let db = portable::dot(&rb, w);
            assert_eq!(
                (bits(&[da]), bits(&ra), bits(&aa)),
                (bits(&[db]), bits(&rb), bits(&ab)),
                "lincomb_step_dot, {ctx}"
            );
        }
    }

    /// Inputs of `len` components from `seed`: every special anywhere,
    /// so NaNs meet and are compared as NaN.
    fn any_specials(len: usize, seed: u64) {
        let mut rng = TestRng::deterministic(&format!("any/{len}/{seed}"));
        let sparsity = [1, 3, 6, 30][(seed % 4) as usize];
        let n = SPECIALS.len();
        let [x, y, z] = [(); 3].map(|_| mixed(len, sparsity, n, &mut rng));
        let st = (
            SPECIALS[(seed / 4) as usize % n],
            (rng.unit_f64() - 0.5) as f32,
        );
        let w = mixed(len, sparsity, n, &mut rng);
        twins_match_portable(&[x, y, z, w], st, true);
    }

    /// Inputs of `len` components from `seed` holding one NaN (random
    /// payload and sign) in `x` and none of the infinities or huge
    /// values that could make a second: its payload must come out of
    /// both paths alike.
    fn one_nan(len: usize, seed: u64) {
        let mut rng = TestRng::deterministic(&format!("nan/{len}/{seed}"));
        let [mut x, y, z] = [(); 3].map(|_| mixed(len, 2, 5, &mut rng));
        if len > 0 {
            let payload = (rng.next_u64() as u32 & 0x803f_ffff) | 0x7fc0_0000;
            x[rng.below(len as u64) as usize] = f32::from_bits(payload);
        }
        let st = (
            (rng.unit_f64() * 4.0 - 2.0) as f32,
            (rng.unit_f64() - 0.5) as f32,
        );
        let w = mixed(len, 2, 5, &mut rng);
        twins_match_portable(&[x, y, z, w], st, false);
    }

    /// Each length once, so every `len % 8` on both sides of
    /// `TWIN_MIN_LEN`.
    #[test]
    fn twins_match_portable_at_every_length_to_1100() {
        for len in 0..=1100 {
            any_specials(len, len as u64);
            one_nan(len, len as u64);
        }
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

        #[test]
        fn twins_match_portable_bit_for_bit(len in 0usize..1101, seed in any::<u64>()) {
            any_specials(len, seed);
            one_nan(len, seed);
        }
    }
}
