//! The discrete-event job simulator.
//!
//! Time advances in two-minute decision steps (BidBrain's cadence,
//! Sec. 5). Between steps the [`proteus_market::CloudProvider`] fires
//! hour charges, eviction warnings, and evictions; at each step the
//! scheme's policy reacts: accrues work, applies eviction/scale pauses
//! or checkpoint rollbacks, terminates allocations whose renewal would
//! hurt cost-per-work, and considers acquisitions. The pauses are the
//! scheme's [`SchemeKind::app_params`], the σ and λ its BidBrain prices
//! with, held once by that BidBrain.

use proteus_bidbrain::{
    AllocView, BetaEstimator, BidBrain, BidBrainConfig, ForecastConfig, PreemptionForecaster,
    StandardStrategy, DECISION_STEP,
};
use std::collections::BTreeMap;
use std::sync::Arc;

use proteus_market::{
    AllocationId, CloudProvider, MarketKey, ProviderEvent, TraceSet, UsageBreakdown,
};
use proteus_obs::{CostEvent, Event, MarketEvent, Recorder, Unshared};
use proteus_simtime::{SimDuration, SimTime};

use crate::scheme::{JobSpec, Scheme, SchemeKind, ON_DEMAND_COUNT, STANDARD_CORES};

mod queue;

pub use queue::{run_job_queue, QueueOutcome};

/// Wall time one checkpoint write takes under the adaptive-checkpoint
/// scheme: the `C` in Young's rule, and the pause an alert-triggered
/// checkpoint pays. It is the per-checkpoint cost the fixed baseline's
/// 17 % overhead implies (0.17 × ≈20 min of fleet progress ≈ 3.4 min).
const CHECKPOINT_COST: SimDuration = SimDuration::from_secs(204);

/// Outcome of one simulated job.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Dollars charged to this job (final partial billing hours are
    /// credited back, per the paper's accounting).
    pub cost: f64,
    /// Wall-clock from job start to completion.
    pub runtime: SimDuration,
    /// Machine-hour breakdown (on-demand / paid spot / free).
    pub usage: UsageBreakdown,
    /// Number of spot evictions suffered.
    pub evictions: u32,
    /// Whether the job finished within the simulation horizon.
    pub completed: bool,
    /// Spot instances acquired per market over the whole job — the
    /// multi-market exploitation signature (the paper's BidBrain tracks
    /// "multiple instance types, which move relatively independently").
    pub market_mix: BTreeMap<String, u32>,
}

/// Runs one job under one scheme.
///
/// `traces` must cover `[start, start + horizon]`; `beta` should be
/// trained on an earlier window of the same markets (Proteus only uses
/// it; the other schemes ignore it).
pub fn run_job(
    scheme: &Scheme,
    traces: &TraceSet,
    beta: &BetaEstimator,
    start: SimTime,
    horizon: SimDuration,
) -> SimOutcome {
    run_positioned(
        scheme,
        CloudProvider::new(traces),
        beta,
        start,
        horizon,
        None,
    )
}

/// Runs one job on `market`, a provider with any fault plan installed
/// that has made no request: at the epoch, or already advanced to
/// `start` (a study positions one per start and hands each scheme's job
/// a clone of it).
///
/// With a recorder, the run additionally emits `market.*` provider
/// events, `bid.*` candidate rankings, change-only `market.price_move`
/// records, and hourly `costsim.sample` records — without one the run
/// is byte-for-byte the unobserved simulation (recording is passive).
pub(crate) fn run_positioned<'a>(
    scheme: &Scheme,
    market: CloudProvider<'a>,
    beta: &'a BetaEstimator,
    start: SimTime,
    horizon: SimDuration,
    obs: Option<Arc<Recorder>>,
) -> SimOutcome {
    let mut sim = JobSim::new(scheme, market, beta, start);
    if let Some(rec) = obs {
        sim.set_recorder(rec);
    }
    sim.run(start + horizon)
}

/// Mutable simulation state.
///
/// Borrows the trace set and β estimator for its whole lifetime: a
/// study spawns thousands of `JobSim`s against one shared history, and
/// cloning either per run dominated study wall-clock time.
///
/// A clone is a fork: it runs on exactly as the original would from
/// the same instant, with no recorder.
#[derive(Clone)]
struct JobSim<'a> {
    kind: SchemeKind,
    job: JobSpec,
    provider: CloudProvider<'a>,
    brain: BidBrain<'a>,
    standard: StandardStrategy,
    start: SimTime,
    /// Useful work accumulated (φ-scaled core-hours).
    work_done: f64,
    /// Work level at the last checkpoint (checkpoint scheme only).
    checkpointed_work: f64,
    /// Progress is paused until this instant (eviction/scale overheads,
    /// restart delays).
    paused_until: SimTime,
    /// Spot instances acquired per market; rendered to names once, in
    /// the outcome.
    market_mix: BTreeMap<MarketKey, u32>,
    /// Credits applied by queue accounting (terminated fresh hours).
    credits: f64,
    /// The on-demand allocation, when provisioned.
    od_alloc: Option<AllocationId>,
    /// Degraded-mode on-demand machines, provisioned when every spot
    /// market refuses capacity and the footprint produces no work;
    /// released the moment usable spot capacity returns. Only a fault
    /// plan can refuse capacity, so this stays `None` fault-free. Holds
    /// the allocation and its instance count.
    fallback: Option<(AllocationId, u32)>,
    /// Cumulative degraded-mode fallback provisionings over the run.
    fallback_launches: u32,
    /// Live preemption forecaster (adaptive-checkpoint scheme only);
    /// `None` for every other scheme keeps their steps untouched.
    forecaster: Option<PreemptionForecaster>,
    /// Current Young's-rule interval from the forecasted hazard.
    adaptive_tau: SimDuration,
    /// Next scheduled adaptive checkpoint commit.
    next_checkpoint: SimTime,
    /// Observability recorder; `None` keeps every step allocation-free.
    obs: Unshared,
    /// Last prices emitted, in market order, for change-only
    /// `PriceMove` events; a slice compare keeps the no-change step on a
    /// branch-only fast path.
    obs_last_prices: Vec<(MarketKey, f64)>,
    /// Interned market names, in the provider's price order, so
    /// emitting a `PriceMove` is an `Arc` clone rather than a `Display`
    /// render.
    obs_market_names: Vec<Arc<str>>,
    /// Next instant a periodic `costsim.sample` record is due.
    obs_next_sample: SimTime,
}

impl<'a> JobSim<'a> {
    /// A job of `scheme` from `start` on `provider`, which has made no
    /// request yet.
    fn new(
        scheme: &Scheme,
        provider: CloudProvider<'a>,
        beta: &'a BetaEstimator,
        start: SimTime,
    ) -> Self {
        let bid_deltas = match &scheme.kind {
            SchemeKind::Proteus { bid_deltas } => bid_deltas.clone(),
            _ => BidBrainConfig::default().bid_deltas,
        };
        let brain = BidBrain::new(
            scheme.kind.app_params(),
            beta,
            BidBrainConfig {
                target_cores: scheme.job.target_cores,
                max_alloc_instances: 64,
                bid_deltas,
                ..BidBrainConfig::default()
            },
        );
        // Only the adaptive-checkpoint scheme forecasts; it starts at the
        // calm-market cadence of a forecaster that has seen nothing.
        let (forecaster, adaptive_tau) = match scheme.kind {
            SchemeKind::AdaptiveCheckpoint => {
                let fc = PreemptionForecaster::new(ForecastConfig::default());
                let tau = fc.checkpoint_interval(CHECKPOINT_COST);
                (Some(fc), tau)
            }
            _ => (None, SimDuration::ZERO),
        };
        JobSim {
            kind: scheme.kind.clone(),
            job: scheme.job,
            provider,
            brain,
            standard: StandardStrategy::new(STANDARD_CORES),
            start,
            work_done: 0.0,
            checkpointed_work: 0.0,
            paused_until: start,
            market_mix: BTreeMap::new(),
            credits: 0.0,
            od_alloc: None,
            fallback: None,
            fallback_launches: 0,
            forecaster,
            adaptive_tau,
            next_checkpoint: start + adaptive_tau,
            obs: Unshared::default(),
            obs_last_prices: Vec::new(),
            obs_market_names: Vec::new(),
            obs_next_sample: start,
        }
    }

    /// Attaches an observability recorder. The provider mirrors grants,
    /// refusals, evictions, and billing onto it; BidBrain mirrors its
    /// ranked Eq. 4 candidate evaluations; the sim itself adds
    /// change-only price moves and a periodic cumulative cost/work
    /// sample (the Fig. 9/10 axes). Recording is passive — it never
    /// feeds back into decisions.
    fn set_recorder(&mut self, rec: Arc<Recorder>) {
        rec.set_now(self.provider.now().max(self.start));
        self.provider.set_recorder(Arc::clone(&rec));
        // Intern the market names once: `PriceMove` is the hottest
        // event, and rendering a `MarketKey` through `Display` per
        // emission would dominate the recording overhead.
        let prices = self.provider.spot_prices();
        self.obs_market_names = prices.iter().map(|(m, _)| m.interned_name()).collect();
        self.obs = Unshared(Some(rec));
    }

    /// Emits the periodic sample plus change-only price moves, both at
    /// the sample cadence. This runs every decision step, so the
    /// between-samples fast path is a single time compare; spot prices
    /// tick every few minutes, and scanning them per step would emit
    /// nearly one event per market tick — the hourly change-only scan
    /// keeps the timeline plottable (the Fig. 9/10 axes are hourly
    /// anyway) at a fraction of the recording cost. Market-plane truth
    /// (grants, evictions, charges) is still mirrored exactly,
    /// per-event, by the provider.
    fn obs_step(&mut self, now: SimTime) {
        let Some(rec) = self.obs.0.as_deref() else {
            return;
        };
        if now >= self.obs_next_sample {
            let prices = self.provider.spot_prices();
            for (i, (m, p)) in prices.iter().enumerate() {
                if self.obs_last_prices.get(i) != Some(&(*m, *p)) {
                    let name = self.obs_market_names.get(i);
                    rec.record(
                        now,
                        Event::Market(MarketEvent::PriceMove {
                            market: name.map_or_else(|| m.interned_name(), Arc::clone),
                            price: *p,
                        }),
                    );
                }
            }
            self.obs_last_prices.clear();
            self.obs_last_prices.extend_from_slice(prices);
            let spot: u64 = self
                .provider
                .live_spot()
                .filter(|a| !a.is_booting())
                .map(|a| u64::from(a.count))
                .sum();
            let on_demand = match self.kind {
                SchemeKind::AllOnDemand { machines } => u64::from(machines),
                _ => u64::from(ON_DEMAND_COUNT),
            };
            rec.record(
                now,
                Event::Cost(CostEvent::Sample {
                    cum_cost: self.account_cost(),
                    cum_work: self.work_done,
                    spot,
                    on_demand,
                    fallback: u64::from(self.fallback.map_or(0, |(_, count)| count)),
                }),
            );
            while self.obs_next_sample <= now {
                self.obs_next_sample += SimDuration::from_hours(1);
            }
        }
    }

    /// Net billed dollars so far, minus queue-accounting credits.
    fn account_cost(&self) -> f64 {
        (self.provider.account().total_cost() - self.credits).max(0.0)
    }

    /// Records a granted spot allocation in the market mix.
    fn note_acquisition(&mut self, market: MarketKey, count: u32) {
        *self.market_mix.entry(market).or_insert(0) += count;
    }

    /// The live spot allocations in one walk: their total vCPUs
    /// (booting instances produce no work yet) and whether any is still
    /// booting.
    fn spot_footprint(&self) -> (u32, bool) {
        self.provider
            .live_spot()
            .fold((0, false), |(cores, booting), a| {
                if a.is_booting() {
                    (cores, true)
                } else {
                    (cores + a.count * a.market.instance_type().vcpus, booting)
                }
            })
    }

    /// Work produced per hour by the current footprint (φ-scaled
    /// core-hours per hour), including checkpointing overhead, given
    /// the launched spot holdings' `spot_cores`.
    fn work_rate(&self, spot_cores: u32) -> f64 {
        let mut cores = f64::from(spot_cores);
        let od_cores = f64::from(ON_DEMAND_COUNT * self.job.on_demand_market.instance_type().vcpus);
        if self.job.on_demand_works {
            cores += od_cores;
        }
        if let Some((_, count)) = self.fallback {
            cores += f64::from(count * self.job.on_demand_market.instance_type().vcpus);
        }
        if let SchemeKind::AllOnDemand { machines } = self.kind {
            cores = f64::from(machines * self.job.on_demand_market.instance_type().vcpus);
        }
        if cores <= 0.0 {
            return 0.0;
        }
        let mut rate = cores * self.brain.phi(cores);
        if let SchemeKind::StandardCheckpoint {
            checkpoint_overhead,
            ..
        } = self.kind
        {
            rate *= 1.0 - checkpoint_overhead;
        }
        if matches!(self.kind, SchemeKind::AdaptiveCheckpoint) {
            // Dynamic throughput tax C/τ: vanishes on calm markets where
            // the forecaster lets τ stretch to its cap.
            let tau = self.adaptive_tau.as_hours_f64().max(1e-9);
            rate *= (1.0 - CHECKPOINT_COST.as_hours_f64() / tau).max(0.0);
        }
        rate
    }

    /// Adaptive-checkpoint forecasting pass, run once per decision step.
    ///
    /// The forecaster watches every launched holding (forgetting the ones
    /// gone since the last step, so a stale spike cannot pin the cadence
    /// at its tightest forever); this rederives the Young's-rule interval
    /// from the worst forecasted hazard, commits scheduled checkpoints,
    /// and — on a fresh eviction alert — takes one immediate
    /// out-of-schedule checkpoint (paying its write cost as a pause) so
    /// the predicted eviction loses at most a step of work. No-op for
    /// every other scheme.
    fn forecast_step(&mut self, now: SimTime) {
        let Some(fc) = self.forecaster.as_mut() else {
            return;
        };
        let alerted = !fc.watch(&self.provider, now).is_empty();
        self.adaptive_tau = fc.checkpoint_interval(CHECKPOINT_COST);
        if alerted {
            // Proactive save: everything accrued so far survives the
            // predicted eviction; one checkpoint write is paid now.
            self.checkpointed_work = self.work_done;
            self.next_checkpoint = now + self.adaptive_tau;
            self.pause(CHECKPOINT_COST);
        } else if now >= self.next_checkpoint {
            self.checkpointed_work = self.work_done;
            self.next_checkpoint = now + self.adaptive_tau;
        }
    }

    /// BidBrain's view of the on-demand tier, when the job holds one.
    fn on_demand_tier(&self) -> Option<AllocView> {
        let market = self.job.on_demand_market;
        let work_rate = if self.job.on_demand_works {
            f64::from(market.instance_type().vcpus)
        } else {
            0.0
        };
        (!matches!(self.kind, SchemeKind::AllOnDemand { .. }))
            .then(|| AllocView::on_demand(market, ON_DEMAND_COUNT, work_rate))
    }

    fn pause(&mut self, d: SimDuration) {
        let until = self.provider.now() + d;
        if until > self.paused_until {
            self.paused_until = until;
        }
    }

    /// Handles provider events from the last step.
    fn handle_events(&mut self, events: Vec<(SimTime, ProviderEvent)>) {
        for (_, ev) in events {
            match ev {
                ProviderEvent::Evicted { .. } => {
                    match self.kind {
                        // It holds no spot to lose.
                        SchemeKind::AllOnDemand { .. } => continue,
                        // Restarting loses progress back to the last
                        // checkpoint; λ is the restart delay.
                        SchemeKind::StandardCheckpoint { .. } | SchemeKind::AdaptiveCheckpoint => {
                            self.work_done = self.checkpointed_work;
                        }
                        SchemeKind::StandardAgileML | SchemeKind::Proteus { .. } => {}
                    }
                    self.pause(self.brain.params().lambda);
                }
                // Warning and launch state are read from the allocation
                // views each step; a failed launch billed nothing and
                // computed nothing, so none of these need bookkeeping.
                ProviderEvent::EvictionWarning { .. }
                | ProviderEvent::Launched { .. }
                | ProviderEvent::LaunchFailed { .. } => {}
            }
        }
    }

    /// Accrues work over `[from, to]`, respecting pauses.
    fn accrue(&mut self, from: SimTime, to: SimTime, rate: f64) {
        let active_from = from.max(self.paused_until);
        if active_from >= to {
            return;
        }
        let hours = (to - active_from).as_hours_f64();
        self.work_done += rate * hours;
        if let SchemeKind::StandardCheckpoint {
            checkpoint_interval_core_hours,
            ..
        } = self.kind
        {
            // Checkpoints complete at fixed work intervals.
            let interval = checkpoint_interval_core_hours.max(1e-9);
            self.checkpointed_work = (self.work_done / interval).floor() * interval;
        }
    }

    /// Renewal decisions shortly before billing-hour ends.
    fn renewals(&mut self) {
        // Standard strategies hold until evicted; renewal is automatic
        // while the bid covers the market.
        if !matches!(self.kind, SchemeKind::Proteus { .. }) {
            return;
        }
        let tier = self.on_demand_tier();
        for id in self.brain.release_due(&self.provider, tier.as_slice()) {
            let _ = self.provider.terminate(id);
        }
    }

    /// Acquisition decisions. Returns whether a capacity refusal met
    /// the Proteus scheme's walk, when it ran one.
    fn acquisitions(&mut self) -> Option<bool> {
        if self.work_remaining() <= 0.0 {
            return None;
        }
        match self.kind {
            SchemeKind::AllOnDemand { .. } => None,
            SchemeKind::StandardCheckpoint { .. }
            | SchemeKind::AdaptiveCheckpoint
            | SchemeKind::StandardAgileML => {
                // Re-acquire the full fleet whenever empty (initially and
                // after evictions complete — a warned allocation still
                // counts its cores). A refusal retries naturally:
                // the spot cores stay zero, so the next step asks again.
                if self.spot_footprint() == (0, false) {
                    if let Some(req) = self.standard.acquire(self.provider.spot_prices()) {
                        if let Ok(grant) =
                            self.provider.request_spot(req.market, req.count, req.bid)
                        {
                            self.note_acquisition(req.market, grant.granted);
                        }
                    }
                }
                None
            }
            SchemeKind::Proteus { .. } => {
                // Uncapped: BidBrain's own target bounds the request. A
                // refusal that stops the walk retries next step.
                let tier = self.on_demand_tier();
                let walk = self.brain.acquire(
                    &mut self.provider,
                    tier.as_slice(),
                    |_| true,
                    u32::MAX,
                    self.obs.0.as_deref(),
                );
                if let Some((req, grant)) = walk.granted {
                    self.note_acquisition(req.market, grant.granted);
                    self.pause(self.brain.params().sigma);
                }
                Some(!walk.refused.is_empty())
            }
        }
    }

    /// Degraded mode for the Proteus scheme, mirroring the session
    /// loop's watchdog: when every spot market refuses capacity and the
    /// footprint produces no work, replace the transient fleet with
    /// on-demand machines so the job keeps moving; hand the cores back
    /// the moment usable spot capacity returns. The fallback is kept
    /// out of BidBrain's footprint so the brain keeps probing spot.
    /// `spot` is the step's [`spot_footprint`](Self::spot_footprint).
    fn manage_fallback(&mut self, capacity_refused: bool, spot: (u32, bool)) {
        let (spot_cores, booting) = spot;
        if spot_cores > 0 {
            if let Some((id, _)) = self.fallback.take() {
                let _ = self.provider.terminate(id);
            }
            return;
        }
        if capacity_refused && !booting && self.fallback.is_none() && self.work_rate(0) <= 0.0 {
            let vcpus = self.job.on_demand_market.instance_type().vcpus.max(1);
            let count = STANDARD_CORES.div_ceil(vcpus);
            let market = self.job.on_demand_market;
            if let Ok(id) = self.provider.request_on_demand(market, count) {
                self.fallback = Some((id, count));
                self.fallback_launches += 1;
            }
        }
    }

    fn work_remaining(&self) -> f64 {
        self.job.work_core_hours - self.work_done
    }

    /// Runs decision steps until the current work quota completes or
    /// `deadline` passes; returns the stop instant and completion flag.
    fn run_until_done(&mut self, deadline: SimTime) -> (SimTime, bool) {
        let mut now = self.provider.now().max(self.start);
        let mut completed = false;
        while now < deadline {
            self.obs_step(now);
            self.forecast_step(now);
            self.renewals();
            let refused = self.acquisitions();
            // The spot holdings stand as the step leaves them: the
            // fallback's on-demand machines are not among them.
            let spot = self.spot_footprint();
            if let Some(capacity_refused) = refused {
                self.manage_fallback(capacity_refused, spot);
            }

            let rate = self.work_rate(spot.0);
            let next = (now + DECISION_STEP).min(deadline);
            // `next > now` by construction; `advance_to` only errors on
            // time moving backwards.
            #[allow(clippy::expect_used)]
            let events = self.provider.advance_to(next).expect("time moves forward");
            // Work between events: approximate with the rate sampled at
            // step start; evictions mid-step slightly overcount work by
            // less than one step, symmetrically for all schemes.
            self.handle_events(events);
            self.accrue(now, next, rate);
            now = next;

            if self.work_remaining() <= 0.0 {
                completed = true;
                break;
            }
        }
        (now, completed)
    }

    /// Provisions the reliable (on-demand) base at the start instant.
    fn provision_base(&mut self) {
        // The provider starts at `SimTime::EPOCH <= self.start`;
        // `advance_to` only errors on time moving backwards.
        #[allow(clippy::expect_used)]
        self.provider
            .advance_to(self.start)
            .expect("time moves forward");
        match self.kind {
            SchemeKind::AllOnDemand { machines } => {
                self.od_alloc = self
                    .provider
                    .request_on_demand(self.job.on_demand_market, machines)
                    .ok();
            }
            _ => {
                self.od_alloc = self
                    .provider
                    .request_on_demand(self.job.on_demand_market, ON_DEMAND_COUNT)
                    .ok();
            }
        }
    }

    /// Runs to completion (or the horizon), returning the outcome.
    fn run(&mut self, deadline: SimTime) -> SimOutcome {
        self.provision_base();
        self.run_to(deadline)
    }

    /// [`run`](Self::run) once the base is provisioned: from the
    /// current step to completion (or `deadline`), then the settlement.
    fn run_to(&mut self, deadline: SimTime) -> SimOutcome {
        let (now, completed) = self.run_until_done(deadline);

        // Job done: release everything. The paper's accounting does not
        // charge a job for the unused remainder of its final billing
        // hours (the next job in the sequence uses them), so credit the
        // unused fraction of each live allocation's current hour back
        // (a booting one was billed nothing and cancels free).
        let mut refund = 0.0;
        let spot: Vec<AllocationId> = self.provider.live_spot().map(|a| a.id).collect();
        for id in spot {
            refund += self.provider.unused_hour_credit(id);
            let _ = self.provider.terminate(id);
        }
        // The on-demand tier stays held; it earns the same credit once
        // the run has moved past its start.
        if let Some(id) = self.od_alloc.filter(|_| now > self.start) {
            refund += self.provider.unused_hour_credit(id);
        }
        // Degraded-mode fallback still held at the end.
        if let Some((id, _)) = self.fallback.take() {
            refund += self.provider.unused_hour_credit(id);
            let _ = self.provider.terminate(id);
        }

        let evictions = self.provider.tally().evictions;
        let outcome = SimOutcome {
            cost: (self.provider.account().total_cost() - refund).max(0.0),
            runtime: now - self.start,
            usage: *self.provider.account().usage(),
            evictions,
            completed,
            market_mix: std::mem::take(&mut self.market_mix)
                .into_iter()
                .map(|(market, count)| (market.to_string(), count))
                .collect(),
        };
        if let Some(rec) = self.obs.0.as_deref() {
            rec.set_now(now);
            rec.record(
                now,
                Event::Cost(CostEvent::RunEnd {
                    cost: outcome.cost,
                    work: self.work_done,
                    evictions: u64::from(evictions),
                    fallback_count: u64::from(self.fallback_launches),
                }),
            );
        }
        outcome
    }
}

/// The c4.xlarge market in zone 0, the unit tests' on-demand anchor.
#[cfg(test)]
pub(crate) fn default_on_demand_market() -> MarketKey {
    MarketKey::new(
        proteus_market::catalog::c4_xlarge(),
        proteus_market::Zone(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{JobSpec, Scheme, SchemeKind};
    use proteus_market::{MarketFaultPlan, MarketModel, PriceTrace, TraceGenerator};

    fn flat_traces(price: f64) -> TraceSet {
        let mut set = TraceSet::new();
        set.insert(
            default_on_demand_market(),
            PriceTrace::from_points(vec![(SimTime::EPOCH, price)]).expect("flat trace"),
        );
        set
    }

    fn job(hours: f64) -> JobSpec {
        JobSpec::cluster_b_job(hours, default_on_demand_market())
    }

    #[test]
    fn all_on_demand_costs_match_hand_arithmetic() {
        let spec = job(2.0);
        let scheme = Scheme {
            kind: SchemeKind::AllOnDemand { machines: 128 },
            job: spec,
        };
        let out = run_job(
            &scheme,
            &flat_traces(0.05),
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(48),
        );
        assert!(out.completed);
        // 128 machines × 512-core φ-scaled rate finish 2 h of work in
        // exactly 2 h; cost = 128 × $0.209 × 2.
        assert!(
            (out.runtime.as_hours_f64() - 2.0).abs() < 0.05,
            "{:?}",
            out.runtime
        );
        let expect = 128.0 * 0.209 * 2.0;
        assert!(
            (out.cost - expect).abs() < expect * 0.03,
            "cost {} vs {}",
            out.cost,
            expect
        );
        assert_eq!(out.evictions, 0);
    }

    #[test]
    fn spot_scheme_is_cheaper_on_calm_market() {
        let traces = flat_traces(0.05); // ~24 % of on-demand.
        let spec = job(2.0);
        let od = run_job(
            &Scheme {
                kind: SchemeKind::AllOnDemand { machines: 128 },
                job: spec,
            },
            &traces,
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(48),
        );
        let agile = run_job(
            &Scheme {
                kind: SchemeKind::paper_standard_agileml(),
                job: spec,
            },
            &traces,
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(48),
        );
        assert!(agile.completed);
        assert!(
            agile.cost < od.cost * 0.5,
            "spot at 24 % of on-demand must at least halve cost: {} vs {}",
            agile.cost,
            od.cost
        );
    }

    #[test]
    fn checkpoint_scheme_pays_overhead() {
        let traces = flat_traces(0.05);
        let spec = job(2.0);
        let agile = run_job(
            &Scheme {
                kind: SchemeKind::paper_standard_agileml(),
                job: spec,
            },
            &traces,
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(48),
        );
        let ckpt = run_job(
            &Scheme {
                kind: SchemeKind::paper_checkpoint(),
                job: spec,
            },
            &traces,
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(48),
        );
        assert!(ckpt.completed);
        // No evictions on a flat trace, so the difference is exactly the
        // 17 % checkpoint throughput tax (runtime) and the extra billed
        // hours it causes.
        assert!(
            ckpt.runtime > agile.runtime,
            "checkpointing is slower: {:?} vs {:?}",
            ckpt.runtime,
            agile.runtime
        );
    }

    #[test]
    fn adaptive_checkpoint_beats_fixed_on_calm_market() {
        // Flat trace → hazard stays ~0 → τ stretches to its cap, so the
        // throughput tax is a few percent instead of the fixed 17 %.
        let traces = flat_traces(0.05);
        let spec = job(2.0);
        let fixed = run_job(
            &Scheme {
                kind: SchemeKind::paper_checkpoint(),
                job: spec,
            },
            &traces,
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(48),
        );
        let adaptive = run_job(
            &Scheme {
                kind: SchemeKind::paper_adaptive_checkpoint(),
                job: spec,
            },
            &traces,
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(48),
        );
        assert!(adaptive.completed, "{adaptive:?}");
        assert!(
            adaptive.runtime < fixed.runtime,
            "adaptive cadence must shed overhead on a calm market: {:?} vs {:?}",
            adaptive.runtime,
            fixed.runtime
        );
    }

    #[test]
    fn adaptive_checkpoint_survives_volatile_market() {
        let gen = TraceGenerator::new(11, MarketModel::volatile());
        let keys = vec![default_on_demand_market()];
        let traces = gen.generate_set(&keys, SimDuration::from_hours(96));
        let out = run_job(
            &Scheme {
                kind: SchemeKind::paper_adaptive_checkpoint(),
                job: job(2.0),
            },
            &traces,
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(96),
        );
        // Evictions roll back to checkpointed work and the job still
        // finishes inside the horizon.
        assert!(out.completed, "{out:?}");
    }

    /// A small study's history and trained β, shared by every case.
    fn study_env() -> &'static crate::study::StudyEnv {
        static ENV: std::sync::OnceLock<crate::study::StudyEnv> = std::sync::OnceLock::new();
        ENV.get_or_init(|| {
            crate::study::StudyEnv::new(crate::study::StudyConfig {
                seed: 9,
                train_days: 3,
                eval_days: 4,
                starts: 1,
                ..crate::study::StudyConfig::default()
            })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A clone of a study job at any decision step is a fork: it and
        /// its original run on to equal outcomes and byte-equal obs
        /// timelines (each recorded from the fork on), and the original
        /// ends as a job never cloned ends, its timeline untouched by
        /// the fork — with or without market faults, whose draw streams
        /// the fork must carry too.
        #[test]
        fn a_forked_job_runs_on_as_its_original(raw in proptest::prelude::any::<u64>()) {
            let env = study_env();
            let kind = match raw % 5 {
                0 => SchemeKind::AllOnDemand { machines: 128 },
                1 => SchemeKind::paper_checkpoint(),
                2 => SchemeKind::paper_adaptive_checkpoint(),
                3 => SchemeKind::paper_standard_agileml(),
                _ => SchemeKind::paper_proteus(),
            };
            let scheme = Scheme {
                kind,
                job: JobSpec::cluster_b_job(2.0, env.on_demand_market),
            };
            let start =
                SimTime::from_hours(24 * 3) + SimDuration::from_mins((raw >> 3) % (24 * 60 * 3));
            let faults = (raw >> 20 & 1 == 1).then(|| {
                MarketFaultPlan::new(raw >> 21)
                    .with_throttle(0.2, SimDuration::from_mins(3))
                    .with_boot_delay(SimDuration::from_secs(30), SimDuration::from_mins(5))
                    .with_infant_mortality(0.2, SimDuration::from_hours(1))
            });
            let job = || {
                let mut market = CloudProvider::new(&env.traces);
                if let Some(plan) = &faults {
                    market.set_fault_plan(plan.clone());
                }
                let mut sim = JobSim::new(&scheme, market, &env.beta, start);
                sim.provision_base();
                sim
            };
            let record = |sim: &mut JobSim<'_>| {
                let rec = Arc::new(Recorder::new());
                sim.set_recorder(Arc::clone(&rec));
                rec
            };
            let deadline = start + SimDuration::from_hours(48);
            let mut whole = job();
            let whole_rec = record(&mut whole);
            let whole = whole.run_to(deadline);
            let steps = whole.runtime.as_millis() / DECISION_STEP.as_millis();
            let fork_at = start
                + SimDuration::from_millis(DECISION_STEP.as_millis() * (1 + (raw >> 40) % (steps - 1)));

            // Fork, then record both from the fork on.
            let mut original = job();
            let (now, done) = original.run_until_done(fork_at);
            proptest::prop_assert_eq!((now, done), (fork_at, false));
            let mut fork = original.clone();
            let (original_rec, fork_rec) = (record(&mut original), record(&mut fork));
            let forked = fork.run_to(deadline);
            let continued = original.run_to(deadline);
            proptest::prop_assert_eq!(&forked, &continued);
            proptest::prop_assert_eq!(fork_rec.to_jsonl(), original_rec.to_jsonl());
            proptest::prop_assert_eq!(&continued, &whole);

            // Recorded from its start, an original whose fork ran to the
            // end first has the timeline of a job never cloned.
            let mut original = job();
            let original_rec = record(&mut original);
            original.run_until_done(fork_at);
            original.clone().run_to(deadline);
            proptest::prop_assert_eq!(&original.run_to(deadline), &whole);
            proptest::prop_assert_eq!(original_rec.to_jsonl(), whole_rec.to_jsonl());
        }
    }

    /// Every pause is the scheme's `app_params()`. On a flat market that
    /// prices every bid out at one instant, the step that sees a spot
    /// scheme's eviction holds its progress for exactly λ from the
    /// step's end (the checkpoint schemes also roll back to their last
    /// checkpoint), and each step in which Proteus is granted capacity
    /// holds it for exactly σ from the grant.
    #[test]
    fn pauses_are_the_schemes_app_params() {
        let market = default_on_demand_market();
        let start = SimTime::from_hours(24);
        let spike = start + SimDuration::from_mins(75);
        let mut traces = TraceSet::new();
        let points = vec![(SimTime::EPOCH, 0.05), (spike, 5.0)];
        traces.insert(market, PriceTrace::from_points(points).expect("trace"));
        let mut beta = BetaEstimator::new();
        beta.train(
            market,
            traces.get(&market).expect("trace"),
            SimTime::EPOCH,
            start,
            SimDuration::from_mins(60),
            &BetaEstimator::default_deltas(),
        );
        for kind in [
            SchemeKind::paper_checkpoint(),
            SchemeKind::paper_adaptive_checkpoint(),
            SchemeKind::paper_standard_agileml(),
            SchemeKind::paper_proteus(),
        ] {
            let label = kind.label();
            let params = kind.app_params();
            let proteus = matches!(kind, SchemeKind::Proteus { .. });
            let scheme = Scheme {
                kind,
                job: job(20.0),
            };
            let mut sim = JobSim::new(&scheme, CloudProvider::new(&traces), &beta, start);
            sim.provision_base();
            let (mut evictions, mut grants) = (0, 0);
            let mut now = start;
            while now < spike + SimDuration::from_mins(30) {
                let evicted = sim.provider.tally().evictions;
                let granted: u32 = sim.market_mix.values().sum();
                let (next, done) = sim.run_until_done(now + DECISION_STEP);
                assert!(!done, "{label}");
                if sim.provider.tally().evictions > evicted {
                    evictions += 1;
                    assert_eq!(
                        sim.paused_until,
                        next + params.lambda,
                        "{label} at {next:?}"
                    );
                    if !matches!(
                        scheme.kind,
                        SchemeKind::StandardAgileML | SchemeKind::Proteus { .. }
                    ) {
                        assert_eq!(sim.work_done, sim.checkpointed_work, "{label} rolls back");
                    }
                } else if proteus && next <= spike && sim.market_mix.values().sum::<u32>() > granted
                {
                    grants += 1;
                    assert_eq!(sim.paused_until, now + params.sigma, "{label} at {now:?}");
                }
                now = next;
            }
            assert_eq!(evictions, 1, "{label}: one step sees the spike's eviction");
            assert!(!proteus || grants >= 1, "{label}: a grant before the spike");
        }
    }

    #[test]
    fn proteus_completes_and_exploits_cheap_markets() {
        // Synthetic multi-market week.
        let gen = TraceGenerator::new(3, MarketModel::default());
        let keys = proteus_market::catalog::paper_markets();
        let traces = gen.generate_set(&keys, SimDuration::from_hours(24 * 7));
        let mut beta = BetaEstimator::new();
        for k in &keys {
            beta.train(
                *k,
                traces.get(k).unwrap(),
                SimTime::EPOCH,
                SimTime::from_hours(24 * 3),
                SimDuration::from_mins(60),
                &BetaEstimator::default_deltas(),
            );
        }
        let spec = JobSpec::cluster_b_job(2.0, keys[0]);
        let out = run_job(
            &Scheme {
                kind: SchemeKind::paper_proteus(),
                job: spec,
            },
            &traces,
            &beta,
            SimTime::from_hours(24 * 3),
            SimDuration::from_hours(48),
        );
        assert!(out.completed, "Proteus finishes the job: {out:?}");
        assert!(out.cost > 0.0);
        let od_cost = 128.0 * 0.209 * 2.0;
        assert!(
            out.cost < od_cost * 0.6,
            "Proteus on a 75 %-discount market saves: {} vs {}",
            out.cost,
            od_cost
        );
    }
}
