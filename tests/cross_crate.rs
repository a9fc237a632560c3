//! Workspace integration tests spanning crates: market ↔ bidbrain ↔
//! costsim consistency, and perfmodel ↔ agileml agreement on stage
//! behavior.

use proteus_bidbrain::{AllocView, AppParams, BetaEstimator, BidBrain, BidBrainConfig};
use proteus_costsim::{run_study, StudyConfig};
use proteus_market::{catalog, CloudProvider, MarketKey, MarketModel, TraceGenerator, Zone};
use proteus_perfmodel::{time_per_iteration, ClusterSpec, Layout};
use proteus_simtime::{SimDuration, SimTime};

fn market() -> MarketKey {
    MarketKey::new(catalog::c4_xlarge(), Zone(0))
}

/// β trained on a trace must agree with the frequency of evictions the
/// provider actually delivers when bidding at that delta on the same
/// trace — the estimator and the billing engine share eviction
/// semantics.
#[test]
fn beta_estimate_matches_provider_eviction_frequency() {
    let horizon = SimDuration::from_hours(24 * 40);
    let gen = TraceGenerator::new(33, MarketModel::default());
    let trace = gen.generate(market(), horizon);

    let delta = 0.01;
    let mut est = BetaEstimator::new();
    est.train(
        market(),
        &trace,
        SimTime::EPOCH,
        SimTime::EPOCH + horizon,
        SimDuration::from_mins(45),
        &[delta],
    );
    let beta = est.beta(market(), delta);

    // Replay the same experiment through the provider.
    let mut evicted = 0usize;
    let mut trials = 0usize;
    let mut t = SimTime::EPOCH;
    while t + SimDuration::from_hours(1) <= SimTime::EPOCH + horizon {
        let mut set = proteus_market::TraceSet::new();
        set.insert(market(), trace.clone());
        let mut provider = CloudProvider::new(set);
        provider.advance_to(t).expect("forward");
        let price = provider.spot_price(market()).expect("trace covers t");
        if provider.request_spot(market(), 1, price + delta).is_ok() {
            trials += 1;
            let events = provider
                .advance_to(t + SimDuration::from_hours(1))
                .expect("forward");
            if events
                .iter()
                .any(|(_, e)| matches!(e, proteus_market::ProviderEvent::Evicted { .. }))
            {
                evicted += 1;
            }
        }
        t += SimDuration::from_hours(7); // Decorrelated samples.
    }
    let measured = evicted as f64 / trials.max(1) as f64;
    assert!(
        (measured - beta).abs() < 0.15,
        "β estimate {beta} vs provider-measured {measured} ({trials} trials)"
    );
}

/// BidBrain's expected cost of holding an allocation for an hour at a
/// given β must bracket the provider-billed cost averaged over many
/// holdings.
#[test]
fn expected_cost_matches_billing_on_average() {
    let horizon = SimDuration::from_hours(24 * 30);
    let gen = TraceGenerator::new(44, MarketModel::default());
    let trace = gen.generate(market(), horizon);
    let delta = 0.005;

    let mut est = BetaEstimator::new();
    est.train(
        market(),
        &trace,
        SimTime::EPOCH,
        SimTime::EPOCH + horizon,
        SimDuration::from_mins(45),
        &[delta],
    );
    let brain = BidBrain::new(AppParams::default(), est, BidBrainConfig::default());

    let mut expected_sum = 0.0;
    let mut billed_sum = 0.0;
    let mut t = SimTime::EPOCH;
    let mut n = 0;
    while t + SimDuration::from_hours(1) <= SimTime::EPOCH + horizon {
        let mut set = proteus_market::TraceSet::new();
        set.insert(market(), trace.clone());
        let mut provider = CloudProvider::new(set);
        provider.advance_to(t).expect("forward");
        let price = provider.spot_price(market()).expect("covered");
        if provider.request_spot(market(), 2, price + delta).is_ok() {
            let view = AllocView {
                market: market(),
                count: 2,
                hourly_price: price,
                bid_delta: Some(delta),
                time_remaining: SimDuration::from_hours(1),
                work_rate: 4.0,
            };
            expected_sum += brain.evaluate(&[view], false).expected_cost;
            provider
                .advance_to(t + SimDuration::from_mins(59))
                .expect("forward");
            billed_sum += provider.account().total_cost();
            n += 1;
        }
        t += SimDuration::from_hours(5);
    }
    assert!(n > 50, "enough samples: {n}");
    let expected = expected_sum / f64::from(n);
    let billed = billed_sum / f64::from(n);
    // Expectation and realized average agree within a loose band (β and
    // prices vary per start).
    assert!(
        (expected - billed).abs() < billed.max(expected) * 0.5 + 0.01,
        "expected {expected} vs billed {billed}"
    );
}

/// The headline claim, end to end: on the same market, the cost study
/// reproduces the paper's ordering with paper-magnitude savings.
#[test]
fn headline_savings_reproduce() {
    let results = run_study(StudyConfig {
        seed: 77,
        train_days: 7,
        eval_days: 10,
        starts: 25,
        job_hours: 2.0,
        ..StudyConfig::default()
    });
    let pct: std::collections::BTreeMap<&str, f64> = results
        .iter()
        .map(|r| (r.scheme.as_str(), r.cost_pct_of_on_demand))
        .collect();
    let proteus = pct["Proteus"];
    let ckpt = pct["Standard+Checkpoint"];
    // Paper: Proteus at ~15-17 % of on-demand (83–85 % savings) and
    // 42–47 % below checkpointing. Allow generous bands for a synthetic
    // market.
    assert!(
        proteus < 30.0,
        "Proteus should save most of the on-demand cost: {proteus}%"
    );
    assert!(
        proteus < ckpt * 0.75,
        "Proteus well below checkpointing: {proteus}% vs {ckpt}%"
    );
}

/// Perfmodel's stage ordering must agree with the stage-selection rule
/// AgileML actually applies: where the model says stage 2 wins, the
/// ratio-based rule picks stage 2, and so on.
#[test]
fn perfmodel_and_stage_selection_agree() {
    let spec = ClusterSpec::cluster_a();
    let app = proteus_perfmodel::presets::mf_netflix_rank1000();

    // At 15:1 (4 reliable, 60 transient) the rule picks stage 2 and the
    // model agrees stage 2 beats stage 1.
    let s1 = time_per_iteration(
        spec,
        app,
        Layout::Stage1 {
            reliable_ps: 4,
            total: 64,
        },
    );
    let s2 = time_per_iteration(
        spec,
        app,
        Layout::Stage2 {
            reliable: 4,
            transient: 60,
            active_ps: 32,
        },
    );
    assert!(s2 < s1);
    assert_eq!(
        proteus_agileml::select_stage(60, 4, 1.0, 15.0),
        proteus_agileml::Stage::Stage2
    );

    // At 63:1 the rule picks stage 3 and the model agrees stage 3 beats
    // stage 2.
    let s2_hi = time_per_iteration(
        spec,
        app,
        Layout::Stage2 {
            reliable: 1,
            transient: 63,
            active_ps: 32,
        },
    );
    let s3_hi = time_per_iteration(
        spec,
        app,
        Layout::Stage3 {
            reliable: 1,
            transient: 63,
            active_ps: 32,
        },
    );
    assert!(s3_hi < s2_hi);
    assert_eq!(
        proteus_agileml::select_stage(63, 1, 1.0, 15.0),
        proteus_agileml::Stage::Stage3
    );

    // At 1:1 the rule stays in stage 1/2 territory and the model agrees
    // stage 3 would be a regression.
    let s2_lo = time_per_iteration(
        spec,
        app,
        Layout::Stage2 {
            reliable: 8,
            transient: 8,
            active_ps: 4,
        },
    );
    let s3_lo = time_per_iteration(
        spec,
        app,
        Layout::Stage3 {
            reliable: 8,
            transient: 8,
            active_ps: 4,
        },
    );
    assert!(s2_lo < s3_lo);
    assert_eq!(
        proteus_agileml::select_stage(8, 8, 1.0, 15.0),
        proteus_agileml::Stage::Stage1
    );
}
