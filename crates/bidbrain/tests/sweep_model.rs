//! The Eq. 4 sweep against the brute force it replaced.
//!
//! `ranked_acquisitions` computes the standing footprint's share of
//! Eqs. 1–3 once and finishes it per `(market, δ)` candidate. The
//! contract is bit-identity with evaluating `footprint + candidate`
//! from scratch for every candidate — same requests, same scores, same
//! `FootprintEval` bits, same order — because bills, rankings and obs
//! records downstream are compared exactly. The oracle here is the
//! pre-split arithmetic, spelled out once more on purpose: one pass in
//! footprint order with the candidate last. `should_renew` goes through
//! the same split and is held to the same oracle.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use proteus_bidbrain::{
    AllocView, AllocationRequest, AppParams, BetaEstimator, BidBrain, BidBrainConfig, FootprintEval,
};
use proteus_market::{catalog, MarketKey, MarketModel, TraceGenerator};
use proteus_obs::{BidEvent, Event, Recorder};
use proteus_simtime::{SimDuration, SimTime};

/// A 17-point δ grid: one full chunk of sweep lanes and one more.
fn wide_deltas() -> Vec<f64> {
    (0..17).map(|i| 0.0001 * 1.65f64.powi(i)).collect()
}

/// Untrained, half-trained (every other market) and fully trained
/// estimators over the eight paper markets, the last also trained on
/// [`wide_deltas`].
fn estimators() -> &'static [BetaEstimator; 4] {
    static CELL: OnceLock<[BetaEstimator; 4]> = OnceLock::new();
    CELL.get_or_init(|| {
        let markets = catalog::paper_markets();
        let horizon = SimDuration::from_hours(72);
        let traces =
            TraceGenerator::new(5, MarketModel::volatile()).generate_set(&markets, horizon);
        let trained = |keep: fn(usize) -> bool, grid: &[f64]| {
            let mut est = BetaEstimator::new();
            for (i, k) in markets.iter().enumerate().filter(|(i, _)| keep(*i)) {
                est.train(
                    *k,
                    traces.get(k).expect("generated"),
                    SimTime::EPOCH,
                    SimTime::EPOCH + horizon,
                    SimDuration::from_mins(30),
                    grid,
                );
                assert!(est.beta(*k, 0.0001) > 0.0, "market {i} never evicts");
            }
            est
        };
        let paper = BetaEstimator::default_deltas();
        [
            trained(|_| false, &paper),
            trained(|i| i & 1 == 0, &paper),
            trained(|_| true, &paper),
            trained(|_| true, &wide_deltas()),
        ]
    })
}

/// A bid delta: on the training grid, between its points, or past its
/// ends.
fn delta(raw: u64) -> f64 {
    match raw % 3 {
        0 => BetaEstimator::default_deltas()[(raw / 3 % 9) as usize],
        1 => 0.00005 + (raw / 3 % 1000) as f64 * 0.0007,
        _ => 0.0001,
    }
}

/// One held allocation from one raw draw.
fn view(raw: u64) -> AllocView {
    let market = catalog::paper_markets()[(raw >> 3) as usize % 8];
    let vcpus = f64::from(market.instance_type().vcpus);
    let count = 1 + (raw >> 6) as u32 % 64;
    let time_remaining = match (raw >> 33) % 4 {
        0 => SimDuration::ZERO,
        1 => SimDuration::from_hours(1),
        _ => SimDuration::from_millis((raw >> 35) % 3_600_001),
    };
    match raw % 8 {
        // The serving-only reliable tier, then a working on-demand one.
        0 => AllocView::on_demand(market, count, 0.0),
        1 => AllocView::on_demand(market, count, vcpus),
        kind => AllocView {
            market,
            count,
            hourly_price: 0.01 + ((raw >> 12) % 500) as f64 * 0.001,
            bid_delta: Some(delta(raw >> 21)),
            time_remaining,
            // Spot that serves but does not compute.
            work_rate: if kind == 2 { 0.0 } else { vcpus },
        },
    }
}

/// A policy engine and a price list from one raw draw.
fn scenario(
    raw: u64,
) -> (
    BidBrain<'static>,
    &'static BetaEstimator,
    Vec<(MarketKey, f64)>,
) {
    // λ and σ up to hours, so Δt clamps at zero.
    let overheads = [
        SimDuration::ZERO,
        SimDuration::from_secs(90),
        SimDuration::from_mins(5),
        SimDuration::from_hours(3),
    ];
    let params = AppParams {
        phi_per_doubling: 0.8 + ((raw >> 7) % 21) as f64 * 0.01,
        sigma: overheads[(raw >> 3) as usize % 4],
        lambda: overheads[(raw >> 5) as usize % 4],
    };
    let config = BidBrainConfig {
        target_cores: [64, 256, 1536, u32::MAX][(raw >> 21) as usize % 4],
        max_alloc_instances: [1, 8, 64][(raw >> 24) as usize % 3],
        // The training grid; fleet's on-grid subset (a row aligned by
        // position, not value, misreads it); off the grid; unsorted
        // with a duplicate; one δ (`proteus_fixed_delta`'s ablation),
        // on the grid and off it; one full chunk of lanes; one chunk
        // and one lane more (the wide grid, on it when the estimator is
        // the wide one).
        bid_deltas: match (raw >> 2) & 1 | (raw >> 60) & 6 {
            0 => BetaEstimator::default_deltas(),
            1 => vec![0.00005, 0.003, 0.07, 0.33, 0.9],
            2 => vec![0.0001, 0.01, 0.05, 0.4],
            3 => vec![0.4, 0.0001, 0.4, 0.02],
            4 => vec![0.01],
            5 => vec![0.0003],
            6 => wide_deltas()[..16].to_vec(),
            _ => wide_deltas(),
        },
        // The paper's margin and none; and, a quarter of the time,
        // margins a few ULPs either side of none, where the gate sits on
        // the incumbent's own score. Bits 58–60 and 63 select no other
        // field, so every margin meets every instance cap.
        min_improvement: match (raw >> 58) & 3 {
            0 => [f64::EPSILON, -f64::EPSILON, 1e-12, -1e-9]
                [((raw >> 60) & 1 | (raw >> 62) & 2) as usize],
            _ => [0.0, 0.02][(raw >> 23) as usize % 2],
        },
    };
    let prices = catalog::paper_markets()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| (raw >> (26 + i)) & 1 == 1)
        .map(|(i, m)| (m, 0.02 + ((raw >> (34 + 3 * i)) % 8) as f64 * 0.03))
        .collect();
    let beta = &estimators()[(raw % 4) as usize];
    (BidBrain::new(params, beta, config), beta, prices)
}

/// Eqs. 1–3 as `evaluate` spelled them before the terms/finish split,
/// over `est`, the estimator `brain` was built from.
fn oracle(
    brain: &BidBrain<'_>,
    est: &BetaEstimator,
    footprint: &[AllocView],
    changing: bool,
) -> FootprintEval {
    let params = brain.params();
    let beta_of = |a: &AllocView| a.bid_delta.map_or(0.0, |d| est.beta(a.market, d));
    if footprint.is_empty() {
        return FootprintEval {
            expected_cost: 0.0,
            expected_work: 0.0,
        };
    }
    let survive_all: f64 = footprint.iter().map(|a| 1.0 - beta_of(a)).product();
    let p_any_eviction = 1.0 - survive_all;
    let (mut cost, mut raw_work, mut total_cores) = (0.0, 0.0, 0.0);
    for a in footprint {
        let beta = beta_of(a);
        let tr = a.time_remaining.as_hours_f64();
        cost += (1.0 - beta) * a.hourly_price * f64::from(a.count) * tr;
        let tte = match a.bid_delta {
            None => a.time_remaining,
            Some(d) => est.median_tte(a.market, d).min(a.time_remaining),
        };
        let omega = (1.0 - beta) * tr + beta * tte.as_hours_f64();
        let mut dt = omega - p_any_eviction * params.lambda.as_hours_f64();
        if changing {
            dt -= params.sigma.as_hours_f64();
        }
        raw_work += f64::from(a.count) * dt.max(0.0) * a.work_rate;
        total_cores += f64::from(a.count) * f64::from(a.market.instance_type().vcpus);
    }
    FootprintEval {
        expected_cost: cost,
        expected_work: raw_work * params.phi(total_cores),
    }
}

type Ranked = Vec<(f64, AllocationRequest, FootprintEval)>;

/// The sweep as it was: every candidate evaluated from scratch, the
/// per-market strict-< best, the improvement gate, a stable sort.
fn brute_force(
    brain: &BidBrain<'_>,
    est: &BetaEstimator,
    footprint: &[AllocView],
    markets: &[(MarketKey, f64)],
) -> (f64, Ranked) {
    let cfg = brain.config();
    let current_score = oracle(brain, est, footprint, false).cost_per_work();
    let current_cores = BidBrain::footprint_cores(footprint);
    let mut ranked: Ranked = Vec::new();
    if current_cores >= cfg.target_cores {
        return (current_score, ranked);
    }
    for &(market, price) in markets {
        let vcpus = market.instance_type().vcpus;
        let count = ((cfg.target_cores - current_cores) / vcpus).min(cfg.max_alloc_instances);
        if count == 0 {
            continue;
        }
        let mut best: Option<(f64, AllocationRequest, FootprintEval)> = None;
        for &delta in &cfg.bid_deltas {
            let mut with = footprint.to_vec();
            with.push(AllocView {
                market,
                count,
                hourly_price: price,
                bid_delta: Some(delta),
                time_remaining: SimDuration::from_hours(1),
                work_rate: f64::from(vcpus),
            });
            let eval = oracle(brain, est, &with, true);
            let score = eval.cost_per_work();
            if best.as_ref().is_none_or(|(b, _, _)| score < *b) {
                let req = AllocationRequest {
                    market,
                    count,
                    bid: price + delta,
                    delta,
                };
                best = Some((score, req, eval));
            }
        }
        // Anything beats a footprint that does no work.
        ranked.extend(best.filter(|(s, _, _)| {
            current_score.is_infinite() || *s < current_score * (1.0 - cfg.min_improvement)
        }));
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    (current_score, ranked)
}

fn bits(e: &FootprintEval) -> (u64, u64) {
    (e.expected_cost.to_bits(), e.expected_work.to_bits())
}

fn request_bits(r: &AllocationRequest) -> (MarketKey, u32, u64, u64) {
    (r.market, r.count, r.bid.to_bits(), r.delta.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sweep_is_bitwise_the_brute_force(
        holdings in vec(any::<u64>(), 0..9),
        raw in any::<u64>(),
    ) {
        let footprint: Vec<AllocView> = holdings.into_iter().map(view).collect();
        let (brain, est, markets) = scenario(raw);
        let now = SimTime::from_hours(7);

        // `evaluate` itself is the oracle's arithmetic.
        for changing in [false, true] {
            prop_assert_eq!(
                bits(&brain.evaluate(&footprint, changing)),
                bits(&oracle(&brain, est, &footprint, changing))
            );
        }

        let (want_score, want) = brute_force(&brain, est, &footprint, &markets);
        let rec = Recorder::new();
        let got = brain.ranked_acquisitions_obs(&footprint, &markets, now, Some(&rec));
        prop_assert_eq!(&got, &brain.ranked_acquisitions(&footprint, &markets, now));
        prop_assert_eq!(got.len(), want.len());
        for (g, (_, w, _)) in got.iter().zip(&want) {
            prop_assert_eq!(request_bits(g), request_bits(w));
        }
        // The head comes with the evaluation behind its score.
        prop_assert_eq!(
            brain
                .consider_acquisition(&footprint, &markets, now)
                .map(|(req, eval)| (request_bits(&req), bits(&eval))),
            want.first().map(|(_, req, eval)| (request_bits(req), bits(eval)))
        );

        // The recorder saw the incumbent's score and every ranked
        // candidate's score and Eq. 4 terms.
        let timeline = rec.timeline();
        let mut seen = Vec::new();
        for e in &timeline.events {
            match &e.event {
                Event::Bid(BidEvent::Evaluated { current_score, candidates, .. }) => {
                    prop_assert_eq!(current_score.to_bits(), want_score.to_bits());
                    prop_assert_eq!(*candidates as usize, want.len());
                }
                Event::Bid(BidEvent::CandidateRanked {
                    score, expected_cost, expected_work, ..
                }) => seen.push((score.to_bits(), expected_cost.to_bits(), expected_work.to_bits())),
                _ => {}
            }
        }
        let at_target = BidBrain::footprint_cores(&footprint) >= brain.config().target_cores;
        prop_assert_eq!(timeline.count("bid.evaluated"), usize::from(!at_target));
        let want_seen: Vec<_> = want
            .iter()
            .map(|(s, _, e)| (s.to_bits(), e.expected_cost.to_bits(), e.expected_work.to_bits()))
            .collect();
        prop_assert_eq!(seen, want_seen);
    }

    #[test]
    fn renewal_is_bitwise_the_brute_force(
        holdings in vec(any::<u64>(), 1..9),
        raw in any::<u64>(),
    ) {
        let mut rest: Vec<AllocView> = holdings.into_iter().map(view).collect();
        let alloc = rest.remove(0);
        let (brain, est, _) = scenario(raw);
        let renew_price = 0.01 + (raw >> 40) as f64 % 300.0 * 0.002;

        let mut with = rest.clone();
        with.push(AllocView {
            hourly_price: renew_price,
            time_remaining: SimDuration::from_hours(1),
            ..alloc.clone()
        });
        let want = alloc.bid_delta.is_none()
            || oracle(&brain, est, &with, false).cost_per_work()
                <= oracle(&brain, est, &rest, true).cost_per_work();
        prop_assert_eq!(brain.should_renew(&alloc, &rest, renew_price), want);
    }
}
