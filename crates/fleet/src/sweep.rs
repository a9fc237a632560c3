//! SpotTune-style hyperparameter sweep driven through the fleet.
//!
//! A sweep submits many preemptible trials as fleet jobs and reallocates
//! budget between them with asynchronous successive halving (ASHA):
//! each trial runs to a **rung** (a cumulative work milestone), reports
//! a score, and is **promoted** to the next rung only if it ranks in the
//! `KEEP_FRACTION` (half) of everything seen at that rung so far —
//! otherwise it is killed early and its budget flows to the survivors.
//! A lag rule additionally kills trials whose realized throughput falls
//! far behind nominal (stuck in a starved market), so a drought cannot
//! pin the sweep's budget on a trial that is not producing work.
//!
//! Trial quality is a pure function of `(sweep seed, trial id, rung)` —
//! seed-stable, so the whole sweep is bit-identical across scheduler
//! thread counts.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use proteus_bidbrain::{AppParams, BetaEstimator, DECISION_STEP};
use proteus_market::{MarketError, TraceSet};
use proteus_simtime::rng::derive_seed;
use proteus_simtime::{Pool, SimDuration, SimTime};

use crate::job::{FleetJobSpec, JobId, JobState};
use crate::sim::{FleetConfig, FleetOutcome, FleetSim, FleetTiming};

/// Fraction of trials seen at a rung that get promoted past it.
const KEEP_FRACTION: f64 = 0.5;

/// Kill a running trial whose realized work is below `LAG_FACTOR ×`
/// nominal after the grace period.
const LAG_FACTOR: f64 = 0.25;

/// How long a trial may run before the lag rule applies.
const LAG_GRACE: SimDuration = SimDuration::from_mins(30);

/// Priority tier trials run at.
const TRIAL_TIER: u32 = 2;

/// Sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Number of trials to generate.
    pub trials: usize,
    /// Gang size per trial.
    pub gang: u32,
    /// Cumulative work milestones in φ-scaled core-hours, strictly
    /// increasing; a trial completing the last rung is a finisher.
    pub rungs: Vec<f64>,
    /// Sweep seed: trial qualities derive from it, nothing else.
    pub seed: u64,
    /// Submission stagger between consecutive trials.
    pub submit_every: SimDuration,
    /// Sweep horizon; unfinished trials end typed-`Unfinished`.
    pub horizon: SimDuration,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            trials: 32,
            gang: 2,
            rungs: vec![2.0, 4.0, 8.0],
            seed: 1,
            submit_every: SimDuration::from_secs(120),
            horizon: SimDuration::from_hours(48),
        }
    }
}

/// One trial's final record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The fleet job backing the trial.
    pub job: JobId,
    /// Terminal fleet state.
    pub state: JobState,
    /// Rungs fully completed (0..=rungs.len()).
    pub rungs_completed: usize,
    /// Best (lowest) score observed; infinite if never scored.
    pub score: f64,
    /// φ-scaled core-hours the trial accrued.
    pub work_done: f64,
}

/// The whole sweep's result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Per-trial records, in trial order.
    pub trials: Vec<TrialResult>,
    /// The underlying fleet's deterministic outcome.
    pub fleet: FleetOutcome,
    /// The finisher with the lowest final score, if any trial finished.
    pub best: Option<JobId>,
}

/// Per-trial driver state.
struct TrialState {
    rung: usize,
    score: f64,
    first_ran_at: Option<SimTime>,
    done: bool,
}

/// An `f64` ordered by [`f64::total_cmp`], so it can live in a heap.
#[derive(Debug, Clone, Copy)]
struct Total(f64);

impl PartialEq for Total {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Total {}
impl PartialOrd for Total {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Total {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One rung's promotion cutoff, kept incrementally: after `n` scores
/// the cutoff is the `keep`-th smallest under [`f64::total_cmp`], with
/// `keep = ceil(n × keep_fraction)` clamped to `1..=n` — bit-for-bit
/// what sorting all `n` scores and indexing `keep - 1` gives. `keep`
/// never shrinks as `n` grows, so the `keep` smallest sit in a max-heap
/// whose top is the cutoff and the rest wait in a min-heap.
#[derive(Debug, Clone)]
struct RungCutoff {
    keep_fraction: f64,
    kept: BinaryHeap<Total>,
    rest: BinaryHeap<Reverse<Total>>,
}

impl RungCutoff {
    /// An empty rung promoting `keep_fraction` of what it sees.
    fn new(keep_fraction: f64) -> Self {
        RungCutoff {
            keep_fraction,
            kept: BinaryHeap::new(),
            rest: BinaryHeap::new(),
        }
    }

    /// Records `score` and returns the cutoff over everything recorded.
    fn push(&mut self, score: f64) -> f64 {
        let n = self.kept.len() + self.rest.len() + 1;
        let keep = ((n as f64 * self.keep_fraction).ceil() as usize).clamp(1, n);
        // Through `rest`, so `kept` only ever takes the smallest outside
        // it: a full `kept` first gives its top back to compete.
        self.rest.push(Reverse(Total(score)));
        if self.kept.len() >= keep {
            self.rest.extend(self.kept.pop().map(Reverse));
        }
        while self.kept.len() < keep {
            let Some(Reverse(low)) = self.rest.pop() else {
                break;
            };
            self.kept.push(low);
        }
        self.kept.peek().map_or(score, |top| top.0)
    }
}

/// The score trial `trial` reports at rung `rung`: a trial-intrinsic
/// base quality plus rung-shrinking noise, all derived from the sweep
/// seed (lower is better). Pure, so replays are exact.
fn trial_score(seed: u64, trial: u64, rung: usize) -> f64 {
    let unit = |s: u64| (s >> 11) as f64 / (1u64 << 53) as f64;
    let base = unit(derive_seed(seed, trial));
    let noise = unit(derive_seed(
        seed,
        trial.wrapping_mul(0x10_0001).wrapping_add(rung as u64),
    ));
    base + (noise - 0.5) * 0.3 / (rung as f64 + 1.0)
}

/// Runs a full sweep through a fresh [`FleetSim`] over the shared
/// traces and β. Returns the outcome plus the fleet's wall-clock
/// scheduler timing.
pub fn run_sweep(
    traces: &TraceSet,
    beta: &BetaEstimator,
    fleet_cfg: FleetConfig,
    cfg: &SweepConfig,
    exec: &Pool,
) -> Result<(SweepOutcome, FleetTiming), MarketError> {
    run_sweep_on(FleetSim::new(traces, beta, fleet_cfg), cfg, exec)
}

/// Runs a full sweep through a fleet the caller prepared (recorder,
/// fault plan). The fleet must hold no jobs yet: trial `i`
/// is job `i`.
pub fn run_sweep_on(
    mut fleet: FleetSim<'_>,
    cfg: &SweepConfig,
    exec: &Pool,
) -> Result<(SweepOutcome, FleetTiming), MarketError> {
    let nominal_rate = {
        // Work a healthy gang produces per hour on the reliable pool's
        // market (the first of `FleetConfig::paper_defaults`' markets).
        let vcpus = f64::from(fleet.config().on_demand_market.instance_type().vcpus);
        let cores = f64::from(cfg.gang) * vcpus;
        cores * AppParams::END_TO_END.phi(cores)
    };
    let first_rung = cfg.rungs.first().copied().unwrap_or(1.0);
    let ids: Vec<JobId> = (0..cfg.trials)
        .map(|i| {
            fleet.submit(
                FleetJobSpec::trial(first_rung, cfg.gang, TRIAL_TIER),
                SimTime::EPOCH + SimDuration::from_millis(cfg.submit_every.as_millis() * i as u64),
            )
        })
        .collect();
    debug_assert!(
        ids.first().is_none_or(|id| id.0 == 0),
        "the sweep needs a fleet with no jobs of its own"
    );
    let mut trials: Vec<TrialState> = (0..cfg.trials)
        .map(|_| TrialState {
            rung: 0,
            score: f64::INFINITY,
            first_ran_at: None,
            done: false,
        })
        .collect();
    // The ASHA ledger: each rung's cutoff over the scores seen so far,
    // in completion order.
    let mut cutoffs = vec![RungCutoff::new(KEEP_FRACTION); cfg.rungs.len()];
    let mut remaining = cfg.trials;

    // The jobs a round must look at, kept across rounds.
    let mut visit: Vec<JobId> = Vec::new();
    let end = SimTime::EPOCH + cfg.horizon;
    while fleet.now() < end {
        let target = (fleet.now() + DECISION_STEP).min(end);
        fleet.run_to(target, exec)?;
        let now = fleet.now();

        // Only live trials and trials that just turned terminal can
        // need a decision. Ascending id order is the ledger's order.
        visit.clear();
        visit.extend(fleet.drain_departed());
        visit.extend(fleet.active_jobs());
        visit.sort_unstable();
        visit.dedup();
        for &id in &visit {
            let i = id.0 as usize;
            if trials[i].done {
                continue;
            }
            let Some(state) = fleet.state(id) else {
                continue;
            };
            let done = match state {
                JobState::Running => {
                    let first = *trials[i].first_ran_at.get_or_insert(now);
                    let elapsed = now.since(first).as_hours_f64();
                    let lagging = now.since(first) > LAG_GRACE
                        && fleet.work_done(id) < LAG_FACTOR * nominal_rate * elapsed;
                    if lagging {
                        fleet.kill(id);
                    }
                    lagging
                }
                JobState::Completed => {
                    let rung = trials[i].rung;
                    let observed = trial_score(cfg.seed, i as u64, rung);
                    trials[i].score = observed.min(trials[i].score);
                    trials[i].rung = rung + 1;
                    if rung + 1 >= cfg.rungs.len() {
                        // The final rung has no promotion gate: every
                        // completer is a finisher; selection happens at
                        // the end.
                        true
                    } else if observed <= cutoffs[rung].push(observed) {
                        fleet.set_target(id, cfg.rungs[rung + 1]);
                        false
                    } else {
                        fleet.kill(id);
                        true
                    }
                }
                JobState::Killed | JobState::Unfinished => true,
                JobState::Submitted | JobState::Waiting => false,
            };
            if done {
                trials[i].done = true;
                remaining -= 1;
            }
        }
        if remaining == 0 {
            break;
        }
    }

    let (fleet_out, timing) = fleet.finish();
    let results: Vec<TrialResult> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| TrialResult {
            job: id,
            state: fleet_out.jobs[id.0 as usize].state,
            rungs_completed: trials[i].rung.min(cfg.rungs.len()),
            score: trials[i].score,
            work_done: fleet_out.jobs[id.0 as usize].work_done,
        })
        .collect();
    let best = results
        .iter()
        .filter(|t| t.state == JobState::Completed && t.rungs_completed == cfg.rungs.len())
        .min_by(|a, b| a.score.total_cmp(&b.score).then(a.job.0.cmp(&b.job.0)))
        .map(|t| t.job);
    Ok((
        SweepOutcome {
            trials: results,
            fleet: fleet_out,
            best,
        },
        timing,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proteus_market::{catalog, MarketKey, PriceTrace, Zone};

    fn key() -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(0))
    }

    fn traces() -> TraceSet {
        let mut set = TraceSet::new();
        set.insert(
            key(),
            PriceTrace::from_points(vec![(SimTime::EPOCH, 0.05)]).expect("trace"),
        );
        set
    }

    fn sweep_cfg() -> SweepConfig {
        SweepConfig {
            trials: 12,
            gang: 2,
            rungs: vec![1.0, 2.0],
            seed: 11,
            submit_every: SimDuration::from_secs(120),
            horizon: SimDuration::from_hours(12),
        }
    }

    #[test]
    fn halving_kills_losers_and_crowns_a_winner() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let (out, _) = run_sweep(
            &traces,
            &beta,
            FleetConfig::paper_defaults(vec![key()]),
            &sweep_cfg(),
            &Pool::serial(),
        )
        .expect("sweep");
        assert_eq!(out.trials.len(), 12);
        let finished = out
            .trials
            .iter()
            .filter(|t| t.rungs_completed == 2 && t.state == JobState::Completed)
            .count();
        let killed = out
            .trials
            .iter()
            .filter(|t| t.state == JobState::Killed)
            .count();
        assert!(finished >= 1, "at least one finisher: {out:?}");
        assert!(killed >= 1, "halving must kill someone: {out:?}");
        let best = out.best.expect("winner");
        let winner = &out.trials[best.0 as usize];
        // The winner's score is minimal among finishers.
        for t in &out.trials {
            if t.rungs_completed == 2 && t.state == JobState::Completed {
                assert!(winner.score <= t.score + 1e-12);
            }
        }
        // Early kills saved work: killed trials accrued less than a
        // finisher's full budget.
        for t in &out.trials {
            if t.state == JobState::Killed {
                assert!(t.work_done < 2.0, "{t:?}");
            }
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let run = |threads: usize| {
            run_sweep(
                &traces,
                &beta,
                FleetConfig::paper_defaults(vec![key()]),
                &sweep_cfg(),
                &Pool::new(threads),
            )
            .expect("sweep")
            .0
        };
        let serial = run(1);
        for threads in [2, 8] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn scores_are_seed_stable_and_seed_sensitive() {
        assert_eq!(trial_score(1, 3, 0), trial_score(1, 3, 0));
        assert_ne!(trial_score(1, 3, 0), trial_score(2, 3, 0));
        assert_ne!(trial_score(1, 3, 0), trial_score(1, 4, 0));
    }

    // The incremental rung cutoff against the sort it replaced.
    // `run_sweep` used to clone and sort every score seen at a rung to
    // read one order statistic. `RungCutoff` keeps that statistic across
    // pushes; a promotion decision flips on a single bit of it, so the
    // comparison here is on bits, over streams built to be awkward under
    // `f64::total_cmp`: duplicates, both zeros, subnormals, infinities
    // and NaNs.

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
}
