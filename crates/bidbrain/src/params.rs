//! Application parameters consumed by BidBrain (paper Table 2).

use std::cell::Cell;

use proteus_simtime::SimDuration;

/// The application characteristics BidBrain's formulas need (Table 2).
///
/// * `φ` (phi) — how efficiently the application scales with instances;
///   modelled as a per-instance efficiency decay applied to total work.
/// * `σ` (sigma) — time the application makes no progress after a change
///   to its resource footprint (add or remove).
/// * `λ` (lambda) — time lost when an allocation is evicted.
/// * `ν` (nu) — work produced per instance per unit time, proportional to
///   the instance's virtual core count (footnote 7); BidBrain takes ν
///   directly from the instance catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppParams {
    /// First-order scalability coefficient: each doubling of core count
    /// retains this fraction of per-core efficiency. 1.0 = perfect
    /// scaling. AgileML measures ≈0.95–0.99 (Sec. 6.5 shows near-ideal
    /// strong scaling).
    pub phi_per_doubling: f64,
    /// Overhead of adding/removing resources (paper σ).
    pub sigma: SimDuration,
    /// Overhead of an eviction (paper λ).
    pub lambda: SimDuration,
}

/// AgileML's Table 2 values, [`AppParams::default`].
const TABLE2: AppParams = AppParams {
    phi_per_doubling: 0.97,
    // AgileML incorporates machines in the background (Sec. 6.6): σ is
    // small. Evictions cost roughly one iteration blip plus recovery
    // coordination.
    sigma: SimDuration::from_secs(30),
    lambda: SimDuration::from_secs(90),
};

impl Default for AppParams {
    fn default() -> Self {
        TABLE2
    }
}

impl AppParams {
    /// AgileML's transitions as the analytic cost loops charge them end
    /// to end: Table 2's φ and σ, with λ the few minutes the paper
    /// measures for a whole eviction — the one-iteration blip plus
    /// data reassignment and, for bulk evictions, the drain/promotion
    /// transition. That price is what keeps BidBrain from bidding
    /// recklessly close to the market purely to farm free compute
    /// (Sec. 6.3 reports that always bidding just above market ran 3–4×
    /// slower).
    pub const END_TO_END: AppParams = AppParams {
        lambda: SimDuration::from_secs(240),
        ..TABLE2
    };

    /// The scaling efficiency φ for a footprint of `cores` total cores
    /// ([`phi`] of this application's `phi_per_doubling`).
    pub fn phi(&self, cores: f64) -> f64 {
        phi(self.phi_per_doubling, cores)
    }

    /// Renders the Table 2 glossary (printed by `figs tab02`).
    pub fn table2() -> Vec<(&'static str, &'static str)> {
        vec![
            ("β", "Probability that allocation is evicted (0-1)"),
            ("φ", "How efficiently application scales (0-1)"),
            ("σ", "Overhead of adding/removing resources (min)"),
            ("λ", "Overhead of evicting resource (min)"),
            ("ν", "Work produced by instance type"),
            ("ωi", "Max compute time remaining in allocation i"),
            ("CA", "Expected cost of a set of allocations ($)"),
            ("WA", "Expected work of a set of allocations"),
            ("EA", "Expected cost per work of a set of allocations"),
        ]
    }
}

/// The scaling efficiency φ of `cores` total cores relative to a single
/// instance, when each doubling keeps `per_doubling` of the per-core
/// efficiency: `per_doubling ^ log2(cores)`, clamped to (0, 1].
pub fn phi(per_doubling: f64, cores: f64) -> f64 {
    if cores <= 1.0 {
        return 1.0;
    }
    per_doubling.powf(cores.log2()).clamp(0.0, 1.0)
}

/// Core counts a [`PhiMemo`] remembers: more than one decision step asks
/// for (the footprint's count, one per instance type it could add, the
/// rest of a footprint at a renewal, and the count that does work).
const PHI_MEMO: usize = 8;

/// φ of one application for the core counts it was last asked for: a
/// decision step whose footprint kept its core count pays a few compares,
/// not a `powf`. A miss computes [`phi`] and takes the place of the
/// oldest count, so every value has the bits [`phi`] gives for its key.
/// Fixed-size and filled lazily: building one allocates nothing, and no
/// count that is never asked for is computed.
#[derive(Debug, Clone)]
pub(crate) struct PhiMemo {
    per_doubling: f64,
    /// `(cores, φ)`; a NaN key (the start) matches no count.
    entries: [Cell<(f64, f64)>; PHI_MEMO],
    /// The entry the next miss overwrites.
    next: Cell<usize>,
}

impl PhiMemo {
    /// A memo for an application keeping `per_doubling` per doubling.
    pub(crate) fn new(per_doubling: f64) -> Self {
        PhiMemo {
            per_doubling,
            entries: std::array::from_fn(|_| Cell::new((f64::NAN, f64::NAN))),
            next: Cell::new(0),
        }
    }

    /// φ of `cores`: [`phi`]`(per_doubling, cores)`, bit for bit. Keys
    /// match by `==`, so `-0.0` finds `0.0`, whose φ is the same `1.0`.
    pub(crate) fn get(&self, cores: f64) -> f64 {
        if let Some((_, value)) = self.entries.iter().map(Cell::get).find(|e| e.0 == cores) {
            return value;
        }
        let value = phi(self.per_doubling, cores);
        let next = self.next.get();
        self.entries[next].set((cores, value));
        self.next.set((next + 1) % PHI_MEMO);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_decays_with_scale() {
        let p = AppParams::default();
        assert_eq!(p.phi(1.0), 1.0);
        assert!(p.phi(8.0) < p.phi(4.0));
        assert!(p.phi(1024.0) > 0.0);
        // ~0.97^log2(64) = 0.97^6 ≈ 0.833.
        assert!((p.phi(64.0) - 0.97f64.powi(6)).abs() < 1e-12);
    }

    /// The memo's φ is [`phi`]'s, bit for bit: for every whole count
    /// from 0 to a study's target, asked in ascending, descending and
    /// repeated order and in rounds of more counts than it holds; at the
    /// `cores <= 1` branch (0, 0.5, 1, −0.0); and at fractional counts
    /// asked right after the whole count beside them.
    #[test]
    fn phi_memo_is_phi_bit_for_bit() {
        let target = 1_536u32;
        for per_doubling in [0.97, 1.0, 0.5, 1.3] {
            let want = |cores: f64| phi(per_doubling, cores).to_bits();
            let memo = PhiMemo::new(per_doubling);
            let whole = (0..=target).chain((0..=target).rev()).chain(0..=target);
            let rounds =
                (0..200).flat_map(|r| (0..PHI_MEMO as u32 + 3).map(move |i| 4 * i + r % 2));
            for c in whole.chain(rounds).map(f64::from) {
                assert_eq!(memo.get(c).to_bits(), want(c), "{per_doubling} at {c}");
            }
            let odd = [
                0.5, 1.0, -0.0, 0.0, 2.0, 2.5, 1.5, 4.0, 4.25, 1_535.0, 1_535.5, 1e12,
            ];
            for c in odd.into_iter().chain(odd.into_iter().rev()) {
                assert_eq!(memo.get(c).to_bits(), want(c), "{per_doubling} at {c}");
            }
        }
    }

    #[test]
    fn table2_lists_all_nine_parameters() {
        assert_eq!(AppParams::table2().len(), 9);
    }
}
