//! The fleet scheduler: many jobs, one market.
//!
//! [`FleetSim`] drives hundreds-to-thousands of concurrent training
//! jobs against a single [`CloudProvider`] and a single shared
//! reliable-machine pool. Each scheduling round (the paper's two-minute
//! decision cadence) it:
//!
//! 1. **admits** submitted jobs while the active set has room,
//!    assigning each a bin-packed slot on the shared reliable pool;
//! 2. **evaluates** every pending gang's best `(market, bid-delta)`
//!    candidate by Eq. 4 cost-per-work — a pure fan-out over the
//!    helper [`Pool`], collected in index order so results are
//!    bit-identical whatever the thread count;
//! 3. **ranks** pending gangs globally by aged fairness weight ×
//!    marginal Eq. 4 value and walks the ranking, acquiring each gang
//!    atomically ([`CloudProvider::request_spot_gang`]) — a capacity
//!    shortfall triggers value-ordered **preemption** of running
//!    low-value preemptible gangs (settled exactly like evictions);
//! 4. **routes** provider events (evictions, launch failures) back to
//!    their jobs via the allocation map and accrues φ-scaled work over
//!    the exact live segments.
//!
//! Every job ends in a typed terminal state; an impossible market
//! yields [`JobState::Unfinished`], never a hang or a panic.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proteus_bidbrain::{
    AllocView, AllocationRequest, AppParams, BetaEstimator, BidBrain, BidBrainConfig, DECISION_STEP,
};
use proteus_market::{
    AllocationId, CloudProvider, MarketError, MarketFaultPlan, MarketKey, ProviderEvent, TraceSet,
    UsageBreakdown,
};
use proteus_obs::{Event, FleetEvent, Recorder};
use proteus_simtime::{Pool, SimDuration, SimTime};

use crate::binpack::ReliablePool;
use crate::job::{FleetJobSpec, JobId, JobState, JobSummary};
use crate::scheduler::{effective_weight, is_starved, rank, RankEntry};

/// Fleet-wide tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Most jobs allowed past admission at once (Waiting + Running).
    pub max_active_jobs: usize,
    /// Market backing the shared reliable pool.
    pub on_demand_market: MarketKey,
}

impl FleetConfig {
    /// Paper-cadence defaults for a fleet over `markets`, the trace
    /// set's markets in market order: the first anchors the reliable
    /// pool. A round prices every market of the trace set.
    pub fn paper_defaults(markets: Vec<MarketKey>) -> Self {
        FleetConfig {
            max_active_jobs: 64,
            on_demand_market: markets[0],
        }
    }
}

/// Reliable-slot density per shared on-demand machine.
const SLOTS_PER_MACHINE: u32 = 8;

/// Bid deltas swept per candidate market.
const BID_DELTAS: [f64; 4] = [0.0001, 0.01, 0.05, 0.4];

/// A pending gang preempts a victim only when its value exceeds
/// `PREEMPTION_MARGIN ×` the victim's (starved gangs ignore this).
const PREEMPTION_MARGIN: f64 = 1.5;

/// A job's live gang: the spot allocation, the footprint it was bought
/// at, and the φ of its cores, fixed for the gang's life.
#[derive(Debug, Clone, Copy)]
struct Gang {
    id: AllocationId,
    market: MarketKey,
    delta: f64,
    phi: f64,
}

/// Why a job's run ends; [`FleetSim::end`] settles each one.
#[derive(Debug, Clone, Copy)]
enum End {
    /// The provider evicted the gang: back to the queue after λ.
    Evicted,
    /// The gang failed during boot: back to the queue at once.
    LaunchFailed,
    /// The scheduler revoked the gang for job `by`: back after λ.
    Preempted { by: usize },
    /// The owner killed the job: the paid hour is forfeited.
    Killed,
    /// The job reached its target.
    Completed,
    /// The fleet finished first.
    Unfinished,
}

/// One job's live record.
#[derive(Debug, Clone)]
struct JobRec {
    spec: FleetJobSpec,
    state: JobState,
    /// Held exactly while the job is `Running`.
    gang: Option<Gang>,
    /// Work accrues from here (launch + σ, or last accrual point).
    accrued_until: SimTime,
    /// No progress before this instant (λ/σ pauses).
    usable_from: SimTime,
    work_done: f64,
    /// Current work target in φ-scaled core-hours (the sweep raises it
    /// rung by rung).
    target: f64,
    queued_since: SimTime,
    rounds_waiting: u32,
    max_rounds_waited: u32,
    evictions: u32,
    preemptions: u32,
    launches: u32,
    /// Final-hour credits earned at completion/teardown.
    credits: f64,
    /// Slot machine index on the reliable pool, while admitted.
    reliable_idx: Option<usize>,
}

impl JobRec {
    /// Accrues φ-scaled work up to `upto`.
    fn accrue(&mut self, upto: SimTime) {
        if let Some(gang) = self.gang {
            let from = self.accrued_until.max(self.usable_from);
            if upto > from {
                let cores =
                    f64::from(self.spec.min_gang) * f64::from(gang.market.instance_type().vcpus);
                self.work_done += upto.since(from).as_hours_f64() * cores * gang.phi;
            }
        }
        self.accrued_until = upto.max(self.accrued_until);
    }
}

/// Deterministic fleet outcome. Compares bit-for-bit across thread
/// counts; wall-clock scheduler timing lives in [`FleetTiming`], kept
/// out of this struct on purpose.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Per-job summaries, in job-id order.
    pub jobs: Vec<JobSummary>,
    /// Net dollars across the whole fleet: all billing minus eviction
    /// refunds and final-hour credits (spot gangs + reliable pool).
    pub total_cost: f64,
    /// φ-scaled core-hours accrued across all jobs.
    pub total_work: f64,
    /// Provider evictions absorbed fleet-wide.
    pub evictions: u64,
    /// Scheduler preemptions issued fleet-wide.
    pub preemptions: u64,
    /// Jobs that reached their work target.
    pub completed: usize,
    /// Scheduling rounds executed.
    pub scheduling_rounds: u64,
    /// Most shared reliable machines held at once.
    pub peak_reliable_machines: usize,
    /// Machine-hours by kind across the fleet.
    pub usage: UsageBreakdown,
}

impl FleetOutcome {
    /// Fleet-wide dollars per unit work (Eq. 4 realized).
    pub fn cost_per_work(&self) -> f64 {
        if self.total_work <= 0.0 {
            f64::INFINITY
        } else {
            self.total_cost / self.total_work
        }
    }
}

/// Wall-clock scheduler bookkeeping time, reported separately from the
/// deterministic outcome (timing differs run to run; decisions do not).
#[derive(Debug, Clone, Copy)]
pub struct FleetTiming {
    /// Seconds spent in scheduler bookkeeping (admission, ranking,
    /// victim selection, launch-walk decisions) — excludes the Eq. 4
    /// evaluation fan-out and all provider calls (gang acquisition,
    /// revocation, market advance), which any per-job baseline pays
    /// too. This is the marginal cost of scheduling *globally*.
    pub sched_seconds: f64,
    /// Rounds over which the time accrued.
    pub rounds: u64,
}

/// An Eq. 4 evaluation task: pending gang or running victim. Floats
/// are held as bits so tasks order and compare exactly: within a round
/// the evaluation is a pure function of the task, so equal tasks are
/// evaluated once.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvalTask {
    gang: u32,
    /// `Some((market, delta bits))` pins the evaluation to a live
    /// gang's current footprint (victim valuation); `None` sweeps every
    /// `(market, delta)` candidate (pending gang).
    pinned: Option<(MarketKey, u64)>,
}

/// Buffers one scheduling round fills and the next reuses, so a round
/// that keeps its shape allocates nothing of its own.
#[derive(Default)]
struct Round {
    /// Jobs at or past their target, ascending, for
    /// [`FleetSim::settle_completions`].
    completers: Vec<usize>,
    /// `Waiting` jobs whose pause is over, ascending.
    pending: Vec<usize>,
    /// Running preemptible jobs, ascending; priced only under a
    /// capacity rule.
    victims: Vec<usize>,
    /// Each pending gang's task, then each victim's.
    tasks: Vec<EvalTask>,
    /// `tasks` sorted and deduplicated: what the fan-out evaluates.
    distinct: Vec<EvalTask>,
    /// The gangs that have a candidate, in launch-walk order once ranked.
    entries: Vec<RankEntry>,
    /// Each entry's request, at the entry's `slot`.
    requests: Vec<AllocationRequest>,
    /// Each victim's value, at its slot in `victims`; `None` if its
    /// footprint did not score.
    victim_value: Vec<Option<f64>>,
}

/// A round's victims beside their values, slot for slot.
type Valued<'r> = (&'r [usize], &'r [Option<f64>]);

/// The multi-tenant fleet scheduler (see the module docs for the round
/// structure).
pub struct FleetSim<'a> {
    cfg: FleetConfig,
    provider: CloudProvider<'a>,
    beta: &'a BetaEstimator,
    pool: ReliablePool,
    jobs: Vec<JobRec>,
    /// The job that minted each gang, indexed by `AllocationId.0`
    /// (ledger attribution; never pruned). The provider numbers every
    /// allocation from one counter, so the ids of the reliable pool's
    /// machines are holes (`None`: no owner). A provider event acts on
    /// its job only while that job's live gang has the event's id.
    alloc_owner: Vec<Option<u32>>,
    obs: Option<Arc<Recorder>>,
    rounds: u64,
    /// Jobs awaiting admission, FIFO by (submission time, id). Entries
    /// are lazily discarded if the job was killed while queued, so the
    /// admission pass costs O(admitted) per round, not O(all jobs).
    admission_queue: BTreeSet<(SimTime, usize)>,
    /// Jobs currently past admission (`Waiting` or `Running`), sorted
    /// ascending, maintained by [`Self::set_state`]. Every per-round
    /// pass iterates this, not `jobs`. Admission fills it to
    /// `max_active_jobs` and no further (only [`Self::set_target`]
    /// reopening a job can pass that), so a sorted insert or removal is
    /// a short shift.
    admitted: Vec<usize>,
    /// Jobs that turned terminal (or completed a re-set target without
    /// reopening) since the last [`Self::drain_departed`], sorted
    /// ascending, each once. Grows by one entry per such job until
    /// drained: a caller that never drains holds at most one `usize` per
    /// job it submitted.
    departed: Vec<usize>,
    /// The round's buffers, kept from one round to the next.
    round: Round,
    sched_nanos: u128,
    /// Time spent inside provider calls (gang acquisition, revocation,
    /// reliable-pool requests) while a scheduler timer was running.
    /// Credited back out of `sched_nanos`: it is market simulation a
    /// per-job runner pays identically, not the price of *global*
    /// scheduling.
    market_credit_nanos: u128,
}

impl<'a> FleetSim<'a> {
    /// A fleet over shared price history and a shared trained β.
    pub fn new(traces: &'a TraceSet, beta: &'a BetaEstimator, cfg: FleetConfig) -> Self {
        let pool = ReliablePool::new(cfg.on_demand_market, SLOTS_PER_MACHINE);
        FleetSim {
            cfg,
            provider: CloudProvider::new(traces),
            beta,
            pool,
            jobs: Vec::new(),
            alloc_owner: Vec::new(),
            obs: None,
            rounds: 0,
            admission_queue: BTreeSet::new(),
            admitted: Vec::new(),
            departed: Vec::new(),
            round: Round::default(),
            sched_nanos: 0,
            market_credit_nanos: 0,
        }
    }

    /// Attaches an observability recorder to the fleet and its provider.
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        self.provider.set_recorder(Arc::clone(&rec));
        self.obs = Some(rec);
    }

    /// Installs provider-side fault regimes (droughts, throttling, boot
    /// delay, infant mortality). Per-tenant draw streams keep each job's
    /// fate independent of the others' request patterns.
    pub fn set_fault_plan(&mut self, plan: MarketFaultPlan) {
        self.provider.set_fault_plan(plan);
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Jobs past admission and not terminal (`Waiting` or `Running`),
    /// in ascending id order.
    pub fn active_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.admitted.iter().map(|&idx| JobId(idx as u64))
    }

    /// Jobs that turned terminal since the last call, ascending, each
    /// once. With [`Self::active_jobs`] this is every job whose state a
    /// driver has not yet seen settle, so it never needs to poll the
    /// rest. A completed job given a new target by [`Self::set_target`]
    /// is either active again (and reported when it next turns
    /// terminal) or, if already past that target, reported again here.
    /// Departures accumulate until drained; not draining is harmless.
    pub fn drain_departed(&mut self) -> Vec<JobId> {
        let departed = std::mem::take(&mut self.departed);
        departed.into_iter().map(|idx| JobId(idx as u64)).collect()
    }

    /// The job gang `allocation` was minted for, if it was a gang: an
    /// observation hook over the owner table (a reliable machine's id
    /// has no owner).
    pub fn gang_owner(&self, allocation: AllocationId) -> Option<JobId> {
        self.owner(allocation).map(|idx| JobId(idx as u64))
    }

    /// Routes `event` at the current time as if the provider had sent
    /// it: a fault door for events naming an allocation the provider no
    /// longer holds (a job's previous gang, a reliable machine), which
    /// must leave every job as it is. An event naming a live gang would
    /// end it behind the provider's back.
    pub fn inject_provider_event(&mut self, event: &ProviderEvent) {
        self.route_event(self.now(), event);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.provider.now()
    }

    /// Submits a job; it competes for admission from `submit_at` (or
    /// the current time, if later).
    pub fn submit(&mut self, spec: FleetJobSpec, submit_at: SimTime) -> JobId {
        let idx = self.jobs.len();
        let now = self.now();
        self.admission_queue.insert((submit_at.max(now), idx));
        self.jobs.push(JobRec {
            target: spec.work_core_hours,
            spec,
            state: JobState::Submitted,
            gang: None,
            accrued_until: now,
            usable_from: now,
            work_done: 0.0,
            queued_since: now,
            rounds_waiting: 0,
            max_rounds_waited: 0,
            evictions: 0,
            preemptions: 0,
            launches: 0,
            credits: 0.0,
            reliable_idx: None,
        });
        JobId(idx as u64)
    }

    /// The job's current lifecycle state.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.jobs.get(id.0 as usize).map(|j| j.state)
    }

    /// φ-scaled core-hours the job has accrued.
    pub fn work_done(&self, id: JobId) -> f64 {
        self.jobs.get(id.0 as usize).map_or(0.0, |j| j.work_done)
    }

    /// Raises (or lowers) a job's work target. Raising the target of a
    /// `Completed` job reopens it: it rejoins the gang queue and runs to
    /// the new target (the sweep's rung-promotion primitive). A
    /// `Completed` job already past the new target (one step's accrual
    /// can overshoot a close target) stays `Completed` and is reported
    /// by [`Self::drain_departed`] again: it completed the new target
    /// too, and its owner has not seen that yet.
    pub fn set_target(&mut self, id: JobId, target: f64) {
        let now = self.now();
        let idx = id.0 as usize;
        let Some(job) = self.jobs.get_mut(idx) else {
            return;
        };
        job.target = target;
        if job.state != JobState::Completed {
            return;
        }
        if job.work_done < target {
            job.queued_since = now;
            job.rounds_waiting = 0;
            self.set_state(idx, JobState::Waiting);
            self.assign_reliable_slot(idx); // completing released it
        } else {
            insert_sorted(&mut self.departed, idx);
        }
    }

    /// Kills a job: its gang is voluntarily terminated (the paid hour
    /// is forfeited — the tenant walked away), its reliable slot is
    /// released, and the kill is recorded as an early-killed trial.
    /// Killing a `Completed` job marks it `Killed` too — the sweep's
    /// "completed this rung but ranked out" early stop.
    pub fn kill(&mut self, id: JobId) {
        let idx = id.0 as usize;
        let live = self
            .jobs
            .get(idx)
            .is_some_and(|j| !matches!(j.state, JobState::Killed | JobState::Unfinished));
        if live {
            self.end(idx, self.now(), End::Killed);
        }
    }

    /// Runs scheduling rounds, one per [`DECISION_STEP`], until the
    /// clock reaches `until`.
    pub fn run_to(&mut self, until: SimTime, exec: &Pool) -> Result<(), MarketError> {
        while self.now() < until {
            let target = (self.now() + DECISION_STEP).min(until);
            self.step_to(target, exec)?;
        }
        Ok(())
    }

    /// One scheduling round: advance the market to `target`, route its
    /// events, accrue work, settle completions, then admit/rank/launch.
    fn step_to(&mut self, target: SimTime, exec: &Pool) -> Result<(), MarketError> {
        let events = self.provider.advance_to(target)?;
        for (t, ev) in events {
            self.route_event(t, &ev);
        }
        for &idx in &self.admitted {
            self.jobs[idx].accrue(target);
        }
        self.settle_completions();
        debug_assert!(self.gangs_agree(), "gang table drifted");
        self.schedule_round(exec);
        self.rounds += 1;
        Ok(())
    }

    /// Ends the fleet: outstanding gangs and the reliable pool are torn
    /// down with final-hour credits, non-terminal jobs become
    /// [`JobState::Unfinished`], and the deterministic outcome plus the
    /// wall-clock scheduler timing are returned.
    pub fn finish(mut self) -> (FleetOutcome, FleetTiming) {
        let now = self.now();
        for idx in 0..self.jobs.len() {
            if !self.jobs[idx].state.is_terminal() {
                self.end(idx, now, End::Unfinished);
            }
        }
        let pool_credit = self.pool.teardown(&mut self.provider);

        // Ledger attribution: every entry carries its allocation id, and
        // `alloc_owner` remembers which job minted each gang.
        let mut per_job_cost = vec![0.0f64; self.jobs.len()];
        for entry in self.provider.account().entries() {
            if let Some(idx) = self.owner(entry.allocation) {
                per_job_cost[idx] += entry.amount;
            }
        }

        let jobs: Vec<JobSummary> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(idx, j)| JobSummary {
                id: JobId(idx as u64),
                state: j.state,
                work_done: j.work_done,
                spot_cost: (per_job_cost[idx] - j.credits).max(0.0),
                evictions: j.evictions,
                preemptions: j.preemptions,
                launches: j.launches,
                max_rounds_waited: j.max_rounds_waited,
            })
            .collect();
        let credits: f64 = self.jobs.iter().map(|j| j.credits).sum::<f64>() + pool_credit;
        let outcome = FleetOutcome {
            total_cost: (self.provider.account().total_cost() - credits).max(0.0),
            total_work: self.jobs.iter().map(|j| j.work_done).sum(),
            evictions: jobs.iter().map(|j| u64::from(j.evictions)).sum(),
            preemptions: jobs.iter().map(|j| u64::from(j.preemptions)).sum(),
            completed: jobs
                .iter()
                .filter(|j| j.state == JobState::Completed)
                .count(),
            scheduling_rounds: self.rounds,
            peak_reliable_machines: self.pool.peak_machines(),
            usage: *self.provider.account().usage(),
            jobs,
        };
        let timing = FleetTiming {
            sched_seconds: self.sched_nanos.saturating_sub(self.market_credit_nanos) as f64 / 1e9,
            rounds: self.rounds,
        };
        (outcome, timing)
    }

    /// Routes one provider event back to its job.
    fn route_event(&mut self, t: SimTime, ev: &ProviderEvent) {
        let (why, allocation) = match ev {
            ProviderEvent::Evicted { allocation } => (End::Evicted, allocation),
            ProviderEvent::LaunchFailed { allocation } => (End::LaunchFailed, allocation),
            // Warnings and delayed launches need no job action: billing
            // flows through the ledger and work accrual anchors on
            // `usable_from`.
            ProviderEvent::EvictionWarning { .. } | ProviderEvent::Launched { .. } => return,
        };
        let Some(idx) = self.owner(*allocation) else {
            return;
        };
        if self.jobs[idx].gang.is_some_and(|g| g.id == *allocation) {
            self.end(idx, t, why);
        }
    }

    /// The job that minted gang `id`, if it was a gang.
    fn owner(&self, id: AllocationId) -> Option<usize> {
        let slot = usize::try_from(id.0).ok()?;
        self.alloc_owner
            .get(slot)
            .copied()
            .flatten()
            .map(|idx| idx as usize)
    }

    /// Completes every admitted job that reached its target, in
    /// ascending id order. A `Waiting` job evicted in the step that
    /// carried it past its target completes too, instead of relaunching
    /// for work it has.
    fn settle_completions(&mut self) {
        let now = self.now();
        // Collect, then end: completing a job removes it from the index
        // being walked, and one job's end moves no other job's work.
        let mut done = std::mem::take(&mut self.round.completers);
        done.clear();
        done.extend(
            self.admitted
                .iter()
                .copied()
                .filter(|&idx| self.jobs[idx].work_done >= self.jobs[idx].target),
        );
        for &idx in &done {
            self.end(idx, now, End::Completed);
        }
        self.round.completers = done;
    }

    /// Ends job `idx`'s run at `t`, the one way a gang ends. It accrues
    /// the run's work, settles the gang with the provider, tallies the
    /// end, and sends the job back to the gang queue or out of its
    /// reliable slot.
    fn end(&mut self, idx: usize, t: SimTime, why: End) {
        self.jobs[idx].accrue(t);
        if let Some(gang) = self.jobs[idx].gang.take() {
            match why {
                // The provider has already let the gang go.
                End::Evicted | End::LaunchFailed => {}
                // Made whole as if evicted.
                End::Preempted { .. } => {
                    let m = std::time::Instant::now();
                    let _ = self.provider.revoke(gang.id);
                    self.market_credit_nanos += m.elapsed().as_nanos();
                }
                // The tenant walked away: the paid hour is forfeited.
                End::Killed => {
                    let _ = self.provider.terminate(gang.id);
                }
                // The paper's "final partial hours not charged" rule: the
                // unused rest of the current billing hour is credited.
                End::Completed | End::Unfinished => {
                    self.jobs[idx].credits += self.provider.unused_hour_credit(gang.id);
                    let _ = self.provider.terminate(gang.id);
                }
            }
        }
        let job = &mut self.jobs[idx];
        let (to, usable_from) = match why {
            End::Evicted => {
                job.evictions += 1;
                (JobState::Waiting, Some(t + AppParams::END_TO_END.lambda))
            }
            End::Preempted { .. } => {
                job.preemptions += 1;
                (JobState::Waiting, Some(t + AppParams::END_TO_END.lambda))
            }
            // The grant never ran: nothing to pause for.
            End::LaunchFailed => (JobState::Waiting, Some(t)),
            End::Killed => (JobState::Killed, None),
            End::Completed => (JobState::Completed, None),
            End::Unfinished => (JobState::Unfinished, None),
        };
        if let Some(from) = usable_from {
            job.usable_from = from;
            job.queued_since = t;
            job.rounds_waiting = 0;
        }
        self.set_state(idx, to);
        if to.is_terminal() {
            self.release_reliable_slot(idx);
        }
        let event = match why {
            End::Preempted { by } => FleetEvent::PreemptedByPriority {
                job: idx as u64,
                by: by as u64,
            },
            End::Killed => FleetEvent::TrialEarlyKilled {
                job: idx as u64,
                work_done: self.jobs[idx].work_done,
            },
            _ => return,
        };
        if let Some(rec) = self.obs.as_deref() {
            rec.record(t, Event::Fleet(event));
        }
    }

    /// Assigns job `idx` its reliable slot; an impossible request (wider
    /// than a machine) ends the job as `Unfinished` instead of looping.
    fn assign_reliable_slot(&mut self, idx: usize) {
        let slots = self.jobs[idx].spec.reliable_slots;
        if slots == 0 {
            return;
        }
        let m = std::time::Instant::now();
        let assigned = self.pool.assign(&mut self.provider, slots);
        self.market_credit_nanos += m.elapsed().as_nanos();
        match assigned {
            Ok(machine) => self.jobs[idx].reliable_idx = Some(machine),
            Err(_) => self.set_state(idx, JobState::Unfinished),
        }
    }

    fn release_reliable_slot(&mut self, idx: usize) {
        if let Some(machine) = self.jobs[idx].reliable_idx.take() {
            let slots = self.jobs[idx].spec.reliable_slots;
            self.pool.release(&mut self.provider, machine, slots);
        }
    }

    /// Whether the gang table agrees with the provider and the job
    /// states: the provider's live spot allocations are exactly the
    /// running jobs' gangs, with equal counts and each owned by its job;
    /// the admitted index holds exactly the `Waiting` and `Running` jobs;
    /// and no `Waiting` job is at or past its target.
    fn gangs_agree(&self) -> bool {
        let gangs: BTreeMap<AllocationId, (u32, usize)> = self
            .admitted
            .iter()
            .filter_map(|&idx| {
                let job = &self.jobs[idx];
                job.gang.map(|g| (g.id, (job.spec.min_gang, idx)))
            })
            .collect();
        let live = self.provider.live_spot().map(|a| (a.id, a.count));
        live.eq(gangs.iter().map(|(&id, &(count, _))| (id, count)))
            && gangs
                .iter()
                .all(|(&id, &(_, idx))| self.owner(id) == Some(idx))
            && self.admitted.windows(2).all(|w| w[0] < w[1])
            && self.jobs.iter().enumerate().all(|(idx, job)| {
                job.state.is_admitted() == self.admitted.binary_search(&idx).is_ok()
                    && job.gang.is_some() == (job.state == JobState::Running)
                    && !(job.state == JobState::Waiting && job.work_done >= job.target)
            })
    }

    /// Writes a job's state, keeping the admitted index and the
    /// departure list in sync. Every state write goes through here.
    fn set_state(&mut self, idx: usize, to: JobState) {
        let was = std::mem::replace(&mut self.jobs[idx].state, to);
        if to.is_admitted() {
            insert_sorted(&mut self.admitted, idx);
        } else if let Ok(at) = self.admitted.binary_search(&idx) {
            self.admitted.remove(at);
        }
        if to.is_terminal() && !was.is_terminal() {
            insert_sorted(&mut self.departed, idx);
        }
    }

    /// One admission + evaluation + ranking + launch pass.
    fn schedule_round(&mut self, exec: &Pool) {
        let now = self.now();

        // --- Admission (timed bookkeeping). ---
        let t0 = std::time::Instant::now();
        // Admission pops the FIFO queue — (submit time, id) order — so
        // rounds with nothing to admit cost one comparison, not a scan.
        if self
            .admission_queue
            .first()
            .is_some_and(|&(at, _)| at <= now)
        {
            while self.admitted.len() < self.cfg.max_active_jobs {
                let Some(&(at, idx)) = self.admission_queue.first() else {
                    break;
                };
                if at > now {
                    break;
                }
                self.admission_queue.pop_first();
                if self.jobs[idx].state != JobState::Submitted {
                    continue; // killed while still queued for admission
                }
                self.set_state(idx, JobState::Waiting);
                self.jobs[idx].queued_since = now;
                self.jobs[idx].rounds_waiting = 0;
                self.assign_reliable_slot(idx);
                if self.jobs[idx].state != JobState::Waiting {
                    continue; // the slot request refused: typed Unfinished
                }
                if let Some(rec) = self.obs.as_deref() {
                    rec.record(
                        now,
                        Event::Fleet(FleetEvent::JobAdmitted {
                            job: idx as u64,
                            tier: u64::from(self.jobs[idx].spec.tier),
                        }),
                    );
                }
            }
        }
        self.sched_nanos += t0.elapsed().as_nanos();

        let mut round = std::mem::take(&mut self.round);
        self.launch_round(&mut round, now, exec);
        self.round = round;
    }

    /// The round after admission: evaluate, rank and launch the pending
    /// gangs, in `round`'s kept buffers.
    fn launch_round(&mut self, round: &mut Round, now: SimTime, exec: &Pool) {
        let Round {
            completers: _,
            pending,
            victims,
            tasks,
            distinct,
            entries,
            requests,
            victim_value,
        } = round;

        // --- Eq. 4 evaluation fan-out (untimed: a per-job baseline pays
        // these same evaluations). The pure evaluations read the prices
        // at `now` off the provider, fan across the pool and come back in
        // index order — bit-identical for any thread count. ---
        let jobs = &self.jobs;
        pending.clear();
        pending.extend(
            self.admitted
                .iter()
                .copied()
                .filter(|&i| jobs[i].state == JobState::Waiting && jobs[i].usable_from <= now),
        );
        // Preemption can only trigger where a capacity rule can refuse a
        // gang; an uncapped market never needs victim valuations, so
        // skip pricing the running fleet entirely.
        let capacity_limited = self
            .provider
            .fault_plan()
            .is_some_and(|p| !p.capacity.is_empty());
        victims.clear();
        if capacity_limited {
            victims.extend(
                self.admitted
                    .iter()
                    .copied()
                    .filter(|&i| jobs[i].spec.preemptible && jobs[i].gang.is_some()),
            );
        }
        if pending.is_empty() {
            return;
        }

        let task_of = |i: usize, pinned: Option<(MarketKey, u64)>| EvalTask {
            gang: jobs[i].spec.min_gang,
            pinned,
        };
        tasks.clear();
        tasks.extend(pending.iter().map(|&i| task_of(i, None)));
        tasks.extend(
            victims
                .iter()
                .map(|&i| task_of(i, jobs[i].gang.map(|g| (g.market, g.delta.to_bits())))),
        );
        // Sweep trials share one gang shape, so most rounds hold one
        // distinct task however many gangs are pending: evaluate each
        // distinct task once and let every job look its result up.
        distinct.clear();
        distinct.extend_from_slice(tasks);
        distinct.sort_unstable();
        distinct.dedup();
        let (beta, prices) = (self.beta, self.provider.spot_prices());
        let results: Vec<Option<Scored>> = exec.run_indexed(distinct.len(), |ti| {
            evaluate_task(&distinct[ti], beta, prices)
        });
        let evals = |slot: usize| {
            let found = distinct.binary_search(&tasks[slot]).ok()?;
            results[found]
        };

        // --- Ranking + launch walk (timed bookkeeping). ---
        let t1 = std::time::Instant::now();
        entries.clear();
        requests.clear();
        for (slot, &idx) in pending.iter().enumerate() {
            let Some((Some(req), score)) = evals(slot) else {
                self.queue_gang(idx, now);
                continue;
            };
            if !score.is_finite() || score <= 0.0 {
                self.queue_gang(idx, now);
                continue;
            }
            let weight = effective_weight(self.jobs[idx].spec.tier, self.jobs[idx].rounds_waiting);
            entries.push(RankEntry {
                job_idx: idx,
                slot: requests.len(),
                value: weight / score,
                starved: is_starved(self.jobs[idx].rounds_waiting),
            });
            requests.push(req);
        }
        // Victim value: aged weight over its *current* footprint's Eq. 4
        // score — what the fleet gives up by revoking it.
        victim_value.clear();
        victim_value.extend(victims.iter().enumerate().map(|(slot, &idx)| {
            let (_, score) = evals(pending.len() + slot)?;
            let weight = effective_weight(self.jobs[idx].spec.tier, 0);
            (score.is_finite() && score > 0.0).then(|| weight / score)
        }));
        rank(entries);
        self.sched_nanos += t1.elapsed().as_nanos();

        // One timer pair for the whole walk: per-attempt timers would
        // cost more clock reads than the decisions they measure.
        let t2 = std::time::Instant::now();
        let valued = (&victims[..], &victim_value[..]);
        for &entry in entries.iter() {
            let idx = entry.job_idx;
            // A victim revoked earlier in this walk is no longer Running.
            if self.jobs[idx].state != JobState::Waiting {
                continue;
            }
            let launched = self.try_launch(idx, requests[entry.slot], entry, valued, now);
            if !launched {
                self.queue_gang(idx, now);
            }
        }
        self.sched_nanos += t2.elapsed().as_nanos();
    }

    /// One gang acquisition attempt, with value-ordered preemption on a
    /// capacity shortfall. Returns whether the gang launched.
    fn try_launch(
        &mut self,
        idx: usize,
        req: AllocationRequest,
        entry: RankEntry,
        valued: Valued<'_>,
        now: SimTime,
    ) -> bool {
        let gang = self.jobs[idx].spec.min_gang;
        let request = |fleet: &mut Self| {
            let m = std::time::Instant::now();
            let tenant = JobId(idx as u64).tenant();
            let got = fleet
                .provider
                .request_spot_gang(tenant, req.market, gang, req.bid);
            fleet.market_credit_nanos += m.elapsed().as_nanos();
            got
        };
        let mut got = request(self);
        if let Err(MarketError::InsufficientCapacity { available, .. }) = got {
            let needed = gang.saturating_sub(available);
            if self.preempt_for(idx, req.market, needed, entry, valued, now) {
                got = request(self); // capacity was freed; one retry
            }
        }
        let Ok(grant) = got else {
            return false;
        };
        self.commit_launch(idx, req, grant.id, grant.usable_at, now);
        true
    }

    /// Revokes running preemptible gangs in `market`, lowest value
    /// first, until `needed` instances are free — but only victims worth
    /// less than the gang's value over the preemption margin (starved
    /// gangs preempt regardless of margin). Returns whether enough
    /// capacity was freed.
    fn preempt_for(
        &mut self,
        for_idx: usize,
        market: MarketKey,
        needed: u32,
        entry: RankEntry,
        (victims, values): Valued<'_>,
        now: SimTime,
    ) -> bool {
        let mut pool: Vec<(f64, usize)> = victims
            .iter()
            .zip(values)
            .filter_map(|(&v_idx, &value)| Some((value?, v_idx)))
            .filter(|&(_, v_idx)| {
                v_idx != for_idx && self.jobs[v_idx].gang.is_some_and(|g| g.market == market)
            })
            .collect();
        pool.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        // Plan first: commit only if the victims cover the shortfall.
        let mut chosen: Vec<usize> = Vec::new();
        let mut freed = 0u32;
        for &(value, v_idx) in &pool {
            if freed >= needed {
                break;
            }
            let worthwhile = entry.starved || entry.value > PREEMPTION_MARGIN * value;
            if !worthwhile {
                break; // pool is value-sorted: nothing further qualifies
            }
            chosen.push(v_idx);
            freed += self.jobs[v_idx].spec.min_gang;
        }
        if freed < needed {
            return false;
        }
        for v_idx in chosen {
            self.end(v_idx, now, End::Preempted { by: for_idx });
        }
        true
    }

    /// Finalizes a successful gang grant into the job record.
    fn commit_launch(
        &mut self,
        idx: usize,
        req: AllocationRequest,
        alloc: AllocationId,
        usable_at: SimTime,
        now: SimTime,
    ) {
        let slot = alloc.0 as usize;
        if self.alloc_owner.len() <= slot {
            self.alloc_owner.resize(slot + 1, None);
        }
        self.alloc_owner[slot] = Some(idx as u32);
        let waited = now.since(self.jobs[idx].queued_since);
        let job = &mut self.jobs[idx];
        let cores = f64::from(job.spec.min_gang) * f64::from(req.market.instance_type().vcpus);
        job.gang = Some(Gang {
            id: alloc,
            market: req.market,
            delta: req.delta,
            phi: AppParams::END_TO_END.phi(cores),
        });
        job.launches += 1;
        job.max_rounds_waited = job.max_rounds_waited.max(job.rounds_waiting);
        job.rounds_waiting = 0;
        job.accrued_until = now;
        job.usable_from = usable_at.max(now) + AppParams::END_TO_END.sigma;
        self.set_state(idx, JobState::Running);
        if let Some(rec) = self.obs.as_deref() {
            rec.record(
                now,
                Event::Fleet(FleetEvent::GangLaunched {
                    job: idx as u64,
                    market: req.market.interned_name(),
                    count: u64::from(self.jobs[idx].spec.min_gang),
                    bid: req.bid,
                    waited_ms: waited.as_millis(),
                }),
            );
        }
    }

    /// Records one more round of waiting for a gang that did not launch.
    fn queue_gang(&mut self, idx: usize, now: SimTime) {
        let job = &mut self.jobs[idx];
        job.rounds_waiting += 1;
        job.max_rounds_waited = job.max_rounds_waited.max(job.rounds_waiting);
        if let Some(rec) = self.obs.as_deref() {
            rec.record(
                now,
                Event::Fleet(FleetEvent::GangQueued {
                    job: idx as u64,
                    count: u64::from(job.spec.min_gang),
                }),
            );
        }
    }
}

/// Inserts `idx` into the ascending `list` unless it is there already.
fn insert_sorted(list: &mut Vec<usize>, idx: usize) {
    if let Err(at) = list.binary_search(&idx) {
        list.insert(at, idx);
    }
}

/// What one task's evaluation gives: a pending gang's request (none for
/// a victim) and the Eq. 4 score of the gang it would hold.
type Scored = (Option<AllocationRequest>, f64);

/// Pure Eq. 4 evaluation of one task: a pending gang's best `(market,
/// delta)` request, or a victim's pinned current footprint.
fn evaluate_task(
    task: &EvalTask,
    beta: &BetaEstimator,
    prices: &[(MarketKey, f64)],
) -> Option<Scored> {
    let config = BidBrainConfig {
        target_cores: u32::MAX,
        max_alloc_instances: task.gang,
        bid_deltas: BID_DELTAS.to_vec(),
        min_improvement: 0.0,
    };
    let brain = BidBrain::new(AppParams::END_TO_END, beta, config);
    let Some((market, delta_bits)) = task.pinned else {
        // A pending gang takes the head of BidBrain's own (market × delta)
        // sweep over an empty footprint, scored as the sweep scored it:
        // nothing to improve on, so every market passes the gate and the
        // strict-< first-wins best is ranked first.
        let (req, eval) = brain.consider_acquisition(&[], prices, SimTime::EPOCH)?;
        return Some((Some(req), eval.cost_per_work()));
    };
    let price = prices.iter().find(|(m, _)| *m == market).map(|(_, p)| *p)?;
    let view = AllocView {
        market,
        count: task.gang,
        hourly_price: price,
        bid_delta: Some(f64::from_bits(delta_bits)),
        time_remaining: SimDuration::from_hours(1),
        work_rate: f64::from(market.instance_type().vcpus),
    };
    Some((None, brain.evaluate(&[view], false).cost_per_work()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_market::{catalog, PriceTrace, Zone};

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

    fn cfg() -> FleetConfig {
        FleetConfig::paper_defaults(vec![key()])
    }

    #[test]
    fn a_small_fleet_completes_its_jobs() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let mut fleet = FleetSim::new(&traces, &beta, cfg());
        let exec = Pool::serial();
        let _ = fleet.submit(FleetJobSpec::trial(2.0, 2, 0), SimTime::EPOCH);
        let _ = fleet.submit(FleetJobSpec::trial(1.0, 2, 1), SimTime::EPOCH);
        fleet.run_to(SimTime::from_hours(4), &exec).expect("run");
        let (out, timing) = fleet.finish();
        assert_eq!(out.jobs.len(), 2);
        for j in &out.jobs {
            assert_eq!(j.state, JobState::Completed, "{j:?}");
            assert!(j.work_done >= 1.0 - 1e-9);
            assert!(j.spot_cost > 0.0);
        }
        assert!(out.total_cost > 0.0);
        assert!(out.total_work >= 3.0 - 1e-9);
        assert!(out.cost_per_work().is_finite());
        assert_eq!(out.completed, 2);
        // Two one-slot jobs share a single reliable machine.
        assert_eq!(out.peak_reliable_machines, 1);
        assert!(timing.rounds > 0);
    }

    #[test]
    fn outcome_is_identical_across_thread_counts() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let run = |threads: usize| {
            let mut fleet = FleetSim::new(&traces, &beta, cfg());
            for i in 0..8 {
                fleet.submit(
                    FleetJobSpec::trial(1.0 + 0.25 * i as f64, 2, (i % 3) as u32),
                    SimTime::EPOCH + SimDuration::from_mins(2 * i),
                );
            }
            let exec = Pool::new(threads);
            fleet.run_to(SimTime::from_hours(6), &exec).expect("run");
            fleet.finish().0
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn admission_control_bounds_the_active_set() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let mut c = cfg();
        c.max_active_jobs = 2;
        let mut fleet = FleetSim::new(&traces, &beta, c);
        let ids: Vec<JobId> = (0..4)
            .map(|_| fleet.submit(FleetJobSpec::trial(50.0, 2, 0), SimTime::EPOCH))
            .collect();
        let exec = Pool::serial();
        fleet
            .run_to(SimTime::EPOCH + SimDuration::from_mins(10), &exec)
            .expect("run");
        let admitted = ids
            .iter()
            .filter(|&&id| matches!(fleet.state(id), Some(JobState::Waiting | JobState::Running)))
            .count();
        let submitted = ids
            .iter()
            .filter(|&&id| fleet.state(id) == Some(JobState::Submitted))
            .count();
        assert_eq!(admitted, 2);
        assert_eq!(submitted, 2);
    }

    #[test]
    fn kill_terminates_and_marks_killed() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let mut fleet = FleetSim::new(&traces, &beta, cfg());
        let id = fleet.submit(FleetJobSpec::trial(100.0, 2, 0), SimTime::EPOCH);
        let exec = Pool::serial();
        fleet
            .run_to(SimTime::EPOCH + SimDuration::from_mins(30), &exec)
            .expect("run");
        assert_eq!(fleet.state(id), Some(JobState::Running));
        fleet.kill(id);
        assert_eq!(fleet.state(id), Some(JobState::Killed));
        let (out, _) = fleet.finish();
        assert_eq!(out.jobs[0].state, JobState::Killed);
        // The kill forfeited the paid hour: the job pays all of it, two
        // instances at 0.05.
        assert!((out.jobs[0].spot_cost - 0.1).abs() < 1e-12, "{out:?}");
        assert!(out.jobs[0].work_done > 0.0);
    }

    #[test]
    fn killing_an_unknown_job_is_ignored() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let mut fleet = FleetSim::new(&traces, &beta, cfg());
        let id = fleet.submit(FleetJobSpec::trial(1.0, 2, 0), SimTime::EPOCH);
        fleet.kill(JobId(7)); // no such job: ignored like state()/set_target()
        assert_eq!(fleet.state(JobId(7)), None);
        assert_eq!(fleet.state(id), Some(JobState::Submitted));
        assert!(fleet.drain_departed().is_empty());
    }

    #[test]
    fn set_target_reopens_a_completed_job() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let mut fleet = FleetSim::new(&traces, &beta, cfg());
        let id = fleet.submit(FleetJobSpec::trial(1.0, 2, 0), SimTime::EPOCH);
        let exec = Pool::serial();
        fleet.run_to(SimTime::from_hours(2), &exec).expect("run");
        assert_eq!(fleet.state(id), Some(JobState::Completed));
        let w1 = fleet.work_done(id);
        fleet.set_target(id, w1 + 2.0);
        assert_eq!(fleet.state(id), Some(JobState::Waiting));
        fleet.run_to(SimTime::from_hours(4), &exec).expect("run");
        assert_eq!(fleet.state(id), Some(JobState::Completed));
        assert!(fleet.work_done(id) >= w1 + 2.0 - 1e-9);
    }

    /// A flat 0.05 trace with one spike far above any bid over `spike`.
    fn spiky_traces(spike: (SimTime, SimTime)) -> TraceSet {
        let mut set = TraceSet::new();
        let points = vec![(SimTime::EPOCH, 0.05), (spike.0, 5.0), (spike.1, 0.05)];
        set.insert(key(), PriceTrace::from_points(points).expect("trace"));
        set
    }

    #[test]
    fn a_trial_evicted_after_reaching_its_target_completes() {
        // Launched at 2 min, working from 2.5 min at ~0.12 core-hours a
        // minute: 0.5 is reached at ~6.6 min. The spike at 5 min warns
        // the gang, and it is evicted at 7 min, inside the step that
        // crossed the target.
        let mins = |m: u64| SimTime::EPOCH + SimDuration::from_mins(m);
        let traces = spiky_traces((mins(5), mins(9)));
        let beta = BetaEstimator::new();
        let mut fleet = FleetSim::new(&traces, &beta, cfg());
        let id = fleet.submit(FleetJobSpec::trial(0.5, 2, 0), SimTime::EPOCH);
        let exec = Pool::serial();
        fleet.run_to(mins(8), &exec).expect("run");
        assert_eq!(fleet.state(id), Some(JobState::Completed));
        fleet.run_to(mins(30), &exec).expect("run");
        let (out, _) = fleet.finish();
        let job = &out.jobs[0];
        assert_eq!(job.state, JobState::Completed);
        assert_eq!((job.evictions, job.launches), (1, 1), "{job:?}");
        assert!(job.work_done >= 0.5);
    }

    #[test]
    fn a_failed_launch_relaunches_at_the_next_round() {
        // Granted at 2 min with a 4-minute boot; the spike at 3 min fails
        // the launch, and the price is back by the 4-minute round.
        let mins = |m: u64| SimTime::EPOCH + SimDuration::from_mins(m);
        let traces = spiky_traces((mins(3), SimTime::EPOCH + SimDuration::from_secs(210)));
        let beta = BetaEstimator::new();
        let mut fleet = FleetSim::new(&traces, &beta, cfg());
        let boot = SimDuration::from_mins(4);
        fleet.set_fault_plan(MarketFaultPlan::new(1).with_boot_delay(boot, boot));
        let id = fleet.submit(FleetJobSpec::trial(5.0, 2, 0), SimTime::EPOCH);
        let exec = Pool::serial();
        fleet.run_to(mins(4), &exec).expect("run");
        assert_eq!(fleet.state(id), Some(JobState::Running));
        let (out, _) = fleet.finish();
        let job = &out.jobs[0];
        assert_eq!((job.evictions, job.launches), (0, 2), "{job:?}");
    }

    #[test]
    fn horizon_end_yields_typed_unfinished() {
        let traces = traces();
        let beta = BetaEstimator::new();
        let mut fleet = FleetSim::new(&traces, &beta, cfg());
        let id = fleet.submit(FleetJobSpec::trial(1e6, 2, 0), SimTime::EPOCH);
        let exec = Pool::serial();
        fleet.run_to(SimTime::from_hours(1), &exec).expect("run");
        let (out, _) = fleet.finish();
        assert_eq!(out.jobs[0].state, JobState::Unfinished);
        let _ = id;
    }
}
