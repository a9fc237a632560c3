//! `active_jobs()` ∪ `drain_departed()` against the full scan it spares,
//! and the fleet's dense tables against a reference model.
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
//!
//! After every step the same scripts check the tables a round keeps,
//! against a model built from the recorded market and fleet events:
//! - the admitted jobs are exactly the `Waiting` and `Running` ones,
//!   ascending;
//! - the owner table maps every gang ever launched to its job, and the
//!   reliable pool's machines (whose ids interleave with the gangs') to
//!   no job;
//! - an eviction or failed launch naming a job's previous gang, or a
//!   reliable machine, never ends a job's current gang;
//! - jobs that complete in one round end in ascending id order.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use proteus_bidbrain::BetaEstimator;
use proteus_costsim::StudyExecutor;
use proteus_fleet::{FleetConfig, FleetJobSpec, FleetSim, JobId, JobState};
use proteus_market::{
    catalog, AllocationId, MarketFaultPlan, MarketKey, MarketModel, ProviderEvent, TraceGenerator,
};
use proteus_obs::{Event, FleetEvent, MarketEvent, Recorder};
use proteus_simtime::{SimDuration, SimTime};

fn markets() -> Vec<MarketKey> {
    catalog::paper_markets().into_iter().take(2).collect()
}

/// What the recorded events say the fleet's tables must hold.
#[derive(Default)]
struct Model {
    /// Every gang launched → its job.
    owner: BTreeMap<u64, JobId>,
    /// Each job's gangs, oldest first: all but the last are over.
    gangs: BTreeMap<JobId, Vec<u64>>,
    /// The reliable pool's machines.
    reliable: BTreeSet<u64>,
}

impl Model {
    /// Folds one step's events, returning each same-instant run of
    /// completed gangs' owners (a round ends its completers together).
    fn fold(&mut self, events: &[proteus_obs::TimedEvent]) -> Vec<Vec<JobId>> {
        let mut granted = None;
        let mut ended: Vec<(SimTime, JobId)> = Vec::new();
        for e in events {
            match &e.event {
                // A gang's grant is followed by its launch record.
                Event::Market(MarketEvent::SpotGranted { allocation, .. }) => {
                    granted = Some(*allocation);
                }
                Event::Fleet(FleetEvent::GangLaunched { job, .. }) => {
                    let allocation = granted.take().expect("a launch follows its grant");
                    self.owner.insert(allocation, JobId(*job));
                    self.gangs.entry(JobId(*job)).or_default().push(allocation);
                }
                Event::Market(MarketEvent::OnDemandGranted { allocation, .. }) => {
                    self.reliable.insert(*allocation);
                }
                Event::Market(MarketEvent::Terminated { allocation }) => {
                    if let Some(&job) = self.owner.get(allocation) {
                        ended.push((e.t, job));
                    }
                }
                _ => {}
            }
        }
        ended
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| run.iter().map(|&(_, job)| job).collect())
            .collect()
    }
}

/// The three table checks, after any step.
fn check_tables(fleet: &mut FleetSim<'_>, model: &Model, submitted: &[JobId]) {
    // The admitted index: exactly the Waiting and Running jobs, ascending.
    let active: Vec<JobId> = fleet.active_jobs().collect();
    let scan: Vec<JobId> = submitted
        .iter()
        .copied()
        .filter(|&id| fleet.state(id).is_some_and(|s| s.is_admitted()))
        .collect();
    assert_eq!(&active, &scan);

    // The owner table: every gang to its job, every reliable machine and
    // every id past the last to none.
    for (&allocation, &job) in &model.owner {
        assert_eq!(fleet.gang_owner(AllocationId(allocation)), Some(job));
    }
    for &allocation in &model.reliable {
        assert_eq!(fleet.gang_owner(AllocationId(allocation)), None);
    }
    let past = model
        .owner
        .keys()
        .chain(&model.reliable)
        .max()
        .map_or(0, |&id| id + 1);
    assert_eq!(fleet.gang_owner(AllocationId(past)), None);

    // Stale events: naming a job's previous gang or a reliable machine
    // ends nothing.
    let states: Vec<Option<JobState>> = submitted.iter().map(|&id| fleet.state(id)).collect();
    let stale = model
        .gangs
        .values()
        .flat_map(|gangs| &gangs[..gangs.len() - 1])
        .chain(&model.reliable);
    for &allocation in stale {
        let allocation = AllocationId(allocation);
        fleet.inject_provider_event(&ProviderEvent::Evicted { allocation });
        fleet.inject_provider_event(&ProviderEvent::LaunchFailed { allocation });
    }
    let after: Vec<Option<JobState>> = submitted.iter().map(|&id| fleet.state(id)).collect();
    assert_eq!(states, after);
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
        let mut model = Model::default();
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
            // A fresh recorder per step: the model folds what it saw.
            let rec = Arc::new(Recorder::new());
            fleet.set_recorder(Arc::clone(&rec));
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
            for completed in model.fold(&rec.timeline().events) {
                prop_assert!(completed.windows(2).all(|w| w[0] < w[1]), "{completed:?}");
            }
            check_tables(&mut fleet, &model, &submitted);
        }
    }
}
