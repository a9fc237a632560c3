//! The sweep's incremental rung cutoff against the sort it replaced.
//!
//! `run_sweep` used to clone and sort every score seen at a rung to read
//! one order statistic. [`RungCutoff`] keeps that statistic across
//! pushes; a promotion decision flips on a single bit of it, so the
//! comparison here is on bits, over streams built to be awkward under
//! [`f64::total_cmp`]: duplicates, both zeros, subnormals, infinities
//! and NaNs.

use proptest::collection::vec;
use proptest::prelude::*;
use proteus_fleet::RungCutoff;

/// One score from two raw draws: a class, then a value inside it.
fn score(class: u8, raw: u64) -> f64 {
    match class % 6 {
        0 => 0.0,
        1 => -0.0,
        // Subnormals of either sign.
        2 => f64::from_bits((raw & ((1 << 52) - 1)) | (raw & (1 << 63))),
        // A handful of values, so streams are full of duplicates.
        3 => (raw % 5) as f64 * 0.25,
        // Scores shaped like the sweep's own, in [0, 1).
        4 => (raw >> 11) as f64 / (1u64 << 53) as f64,
        // Any bit pattern at all, NaNs and infinities included.
        _ => f64::from_bits(raw),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cutoff_is_bitwise_the_sort_oracle(
        draws in vec((any::<u8>(), any::<u64>()), 1..160),
        below_one in 0.0f64..1.0,
    ) {
        let keep_fraction = 1.0 - below_one; // (0, 1]
        let mut cutoff = RungCutoff::new(keep_fraction);
        let mut seen: Vec<f64> = Vec::new();
        for (class, raw) in draws {
            let x = score(class, raw);
            seen.push(x);
            let keep = ((seen.len() as f64 * keep_fraction).ceil() as usize).max(1);
            let mut sorted = seen.clone();
            sorted.sort_by(f64::total_cmp);
            let got = cutoff.push(x);
            prop_assert_eq!(
                got.to_bits(),
                sorted[keep - 1].to_bits(),
                "n={} keep={} fraction={}: got {:?}, oracle {:?}",
                seen.len(),
                keep,
                keep_fraction,
                got,
                sorted[keep - 1]
            );
        }
    }
}
