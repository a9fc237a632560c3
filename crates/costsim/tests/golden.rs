//! Golden fingerprints of a small four-scheme comparison.
//!
//! BidBrain's Eq. 4 sweep and the decision step around it are
//! restructured for speed under a bit-identity contract: every
//! `FootprintEval`, ranking, bill and `bid.candidate` record
//! must stay what the brute-force sweep produced. These studies — the
//! paper's 2 h and 20 h halves, plain, under a fault plan, and with
//! recorders attached — pin every `StudyResult` field (and the JSONL)
//! to constants recorded at the commit that still re-evaluated the
//! whole footprint per candidate. `{:?}` prints an `f64` as its
//! shortest round-trip decimal, so equal fingerprints mean equal bits.
//! The values are the same in debug and release builds.

use proteus_costsim::StudyExecutor;
use proteus_costsim::{StudyConfig, StudyEnv};
use proteus_market::{MarketFaultPlan, MarketModel};
use proteus_simtime::{SimDuration, SimTime};

/// FNV-1a over the bytes of `parts`, in order.
fn fingerprint(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.iter().flat_map(|p| p.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 4 schemes × 12 starts; `job_hours` selects the 2 h or 20 h half.
fn config(job_hours: f64, market_faults: Option<MarketFaultPlan>) -> StudyConfig {
    StudyConfig {
        seed: 23,
        train_days: 4,
        eval_days: 8,
        starts: 12,
        job_hours,
        market_model: MarketModel::default(),
        max_job_hours: 96.0,
        market_faults,
    }
}

/// Droughts, throttling, boot delays and infant mortality across the
/// evaluation window, so refusals, the ranked-fallback walk and the
/// degraded-mode on-demand fallback all run.
fn faults() -> MarketFaultPlan {
    MarketFaultPlan::new(7)
        .with_drought(SimTime::from_hours(100), SimTime::from_hours(140), 16)
        .with_drought(SimTime::from_hours(180), SimTime::from_hours(200), 0)
        .with_throttle(0.1, SimDuration::from_mins(10))
        .with_boot_delay(SimDuration::from_secs(30), SimDuration::from_mins(4))
        .with_infant_mortality(0.05, SimDuration::from_mins(20))
}

/// Fingerprint of the unrecorded four-scheme comparison.
fn comparison(job_hours: f64, market_faults: Option<MarketFaultPlan>) -> u64 {
    let results = StudyEnv::new(config(job_hours, market_faults))
        .run_comparison_with(&StudyExecutor::serial());
    assert_eq!(results.len(), 4);
    fingerprint(&[&format!("{results:?}")])
}

#[test]
fn plain_comparison_matches_the_brute_force_sweep() {
    let (short, long) = (comparison(2.0, None), comparison(20.0, None));
    assert_eq!(
        (short, long),
        (0xb911_e6ee_146c_9678, 0xe40f_adfe_de28_abd5),
        "fingerprints ({short:#018x}, {long:#018x})"
    );
}

#[test]
fn faulted_comparison_matches_the_brute_force_sweep() {
    let (short, long) = (
        comparison(2.0, Some(faults())),
        comparison(20.0, Some(faults())),
    );
    assert_eq!(
        (short, long),
        (0xe488_7838_9649_0493, 0x878a_01a8_7c6a_25fd),
        "fingerprints ({short:#018x}, {long:#018x})"
    );
}

#[test]
fn recorded_comparison_matches_the_brute_force_sweep() {
    let recorded = |job_hours: f64| {
        let (results, jsonl) = StudyEnv::new(config(job_hours, Some(faults())))
            .run_comparison_recorded(&StudyExecutor::serial());
        for kind in [
            "bid.candidate",
            "market.capacity_refused",
            "market.terminated",
        ] {
            assert!(jsonl.contains(&format!("\"kind\":\"{kind}\"")), "no {kind}");
        }
        fingerprint(&[&format!("{results:?}"), &jsonl])
    };
    let (short, long) = (recorded(2.0), recorded(20.0));
    assert_eq!(
        (short, long),
        (0x8a66_9a7d_4ec5_70d2, 0xcb59_99d2_c10a_02ce),
        "fingerprints ({short:#018x}, {long:#018x})"
    );
}
