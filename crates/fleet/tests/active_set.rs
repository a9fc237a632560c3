//! `active_jobs()` ∪ `drain_departed()` against the full scan it spares.
//!
//! A driver that polls `state()` for every job it ever submitted has to
//! look at each job that is past `Submitted` and whose terminal state it
//! has not already seen — and again at a completed job it gave a new
//! target, which either reopened or is complete at that target too. The
//! fleet reports exactly that set without the scan. Random submit / kill / set_target / run_to scripts — over a
//! volatile market with a capacity drought, a tight admission cap and
//! the odd reliable-slot request no machine can hold — check the two
//! agree at every drain, which also means a departure is never reported
//! twice and a reopened job is back among the active ones.

use std::collections::BTreeSet;

use proptest::collection::vec;
use proptest::prelude::*;
use proteus_bidbrain::BetaEstimator;
use proteus_costsim::StudyExecutor;
use proteus_fleet::{FleetConfig, FleetJobSpec, FleetSim, JobId, JobState};
use proteus_market::{catalog, MarketFaultPlan, MarketKey, MarketModel, TraceGenerator};
use proteus_simtime::{SimDuration, SimTime};

fn markets() -> Vec<MarketKey> {
    catalog::paper_markets().into_iter().take(2).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reported_jobs_are_the_ones_a_full_scan_needs(
        seed in 0u64..1000,
        script in vec((0u8..6, any::<u64>(), 0.0f64..1.0), 1..80),
    ) {
        let traces = TraceGenerator::new(seed, MarketModel::volatile())
            .generate_set(&markets(), SimDuration::from_hours(80));
        let beta = BetaEstimator::new();
        let mut cfg = FleetConfig::paper_defaults(markets());
        cfg.max_active_jobs = 5;
        let mut fleet = FleetSim::new(&traces, &beta, cfg);
        fleet.set_fault_plan(MarketFaultPlan::new(seed).with_drought(
            SimTime::from_hours(1),
            SimTime::from_hours(6),
            3,
        ));
        let exec = StudyExecutor::serial();

        let mut submitted: Vec<JobId> = Vec::new();
        // Terminal states the driver has already been told about.
        let mut settled: BTreeSet<JobId> = BTreeSet::new();
        // An id past the end now and then: unknown jobs are ignored.
        let pick = |submitted: &[JobId], raw: u64| match submitted.len() as u64 {
            0 => JobId(raw % 3),
            n => submitted.get((raw % (n + 1)) as usize).copied().unwrap_or(JobId(n + raw % 3)),
        };
        let mut script = script;
        script.push((5, 0, 0.0)); // always end on a drain
        for (op, raw, unit) in script {
            match op {
                0 | 1 => {
                    let mut spec = FleetJobSpec::trial(
                        0.2 + 2.0 * unit,
                        1 + (raw % 3) as u32,
                        (raw % 4) as u32,
                    );
                    if raw % 11 == 0 {
                        spec.reliable_slots = 9; // wider than a machine
                    }
                    let at = fleet.now() + SimDuration::from_mins(raw % 30);
                    submitted.push(fleet.submit(spec, at));
                }
                2 => fleet.kill(pick(&submitted, raw)),
                3 => {
                    // Sometimes below the work already done: a completed
                    // job then stays completed, at the new target.
                    let id = pick(&submitted, raw);
                    let completed = fleet.state(id) == Some(JobState::Completed);
                    fleet.set_target(id, fleet.work_done(id) + 2.0 * unit - 0.5);
                    if completed {
                        // Live again, or complete at a target its driver
                        // has not seen it reach: either way, look again.
                        settled.remove(&id);
                    }
                }
                4 => {
                    let until = fleet.now() + SimDuration::from_mins(2 + raw % 40);
                    fleet.run_to(until, &exec).expect("run");
                }
                _ => {
                    let scan: BTreeSet<JobId> = submitted
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let state = fleet.state(id).expect("submitted");
                            state != JobState::Submitted
                                && !(state.is_terminal() && settled.contains(&id))
                        })
                        .collect();
                    let active: Vec<JobId> = fleet.active_jobs().collect();
                    let departed = fleet.drain_departed();
                    prop_assert!(active.windows(2).all(|w| w[0] < w[1]), "{active:?}");
                    prop_assert!(departed.windows(2).all(|w| w[0] < w[1]), "{departed:?}");
                    for &id in &active {
                        prop_assert!(fleet.state(id).is_some_and(|s| s.is_admitted()));
                    }
                    let reported: BTreeSet<JobId> =
                        active.iter().chain(&departed).copied().collect();
                    prop_assert_eq!(&reported, &scan);
                    prop_assert!(fleet.drain_departed().is_empty());
                    settled.extend(
                        scan.into_iter()
                            .filter(|&id| fleet.state(id).is_some_and(|s| s.is_terminal())),
                    );
                }
            }
        }
    }
}
