//! The live Proteus session: BidBrain + simulated provider + a real
//! elastic training job.
//!
//! This is the paper's Sec. 5 control loop. The session owns a
//! [`CloudProvider`] replaying synthetic spot-price history, a trained
//! [`BidBrain`], and an [`AgileMlJob`] whose machines are handlers on
//! its own event queue. Advancing market time:
//!
//! * at every decision point (two simulated minutes, just before billing
//!   hours end, and after evictions) BidBrain may acquire allocations —
//!   each granted instance becomes a transient machine added to the
//!   running job;
//! * eviction warnings are forwarded to the elasticity controller, which
//!   drains ActivePSs to their backups within the warning window before
//!   the provider takes the machines;
//! * allocations whose renewal would raise cost-per-work are released
//!   just before their next billing hour.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proteus_agileml::{AgileMlJob, JobError};
use proteus_bidbrain::{
    AllocView, BetaEstimator, BidBrain, Expiring, MarketBackoff, PreemptionForecaster,
    DECISION_STEP,
};
use proteus_market::{
    AllocationId, CloudProvider, MarketError, MarketKey, ProviderEvent, TraceGenerator,
};
use proteus_mlapps::app::MlApp;
use proteus_obs::{BidEvent, Event, Recorder, SessionEvent};
use proteus_simnet::{NodeClass, NodeId};
use proteus_simtime::{SimDuration, SimTime};

use crate::checkpoint::CheckpointStore;
use crate::config::ProteusConfig;
use crate::error::ProteusError;
use crate::report::ProteusReport;

/// Metric name for the 0/1 degraded-mode gauge. Its time-weighted
/// histogram's time at `1.0` equals the report's `degraded_time`.
pub const OBS_DEGRADED_GAUGE: &str = "session.degraded";

/// Span name recorded for each completed degraded episode.
pub const OBS_DEGRADED_SPAN: &str = "session.degraded_episode";

/// How [`Proteus::inject_reliable_failure`] recovered the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliableRecovery {
    /// No live reliable machine was left to kill; nothing happened.
    NoOp,
    /// The controller re-replicated the dead machines' backup
    /// partitions onto surviving reliable machines — no restart, no
    /// rollback past what online recovery already cost.
    Repaired,
    /// The loss was unrepairable: the session tore the job down and
    /// relaunched it from the last durable checkpoint.
    Restarted,
}

/// Floor on the adaptive checkpoint cadence (never snapshot more often
/// than every other decision step, whatever the hazard says).
const CHECKPOINT_MIN: SimDuration = SimDuration::from_mins(4);

/// Ceiling on the adaptive checkpoint cadence — the relaxed interval a
/// hazard-free market earns.
const CHECKPOINT_MAX: SimDuration = SimDuration::from_hours(4);

/// A live Proteus session over one training job.
pub struct Proteus<A: MlApp> {
    config: ProteusConfig,
    // The session owns its synthesized market history and trained β, so
    // both engines hold the `'static` (owned) ends of their borrow-or-own
    // APIs.
    provider: CloudProvider<'static>,
    brain: BidBrain<'static>,
    job: AgileMlJob<A>,
    /// Allocation → the simulated machines it granted (spot grants plus
    /// any degraded-mode on-demand fallback).
    alloc_nodes: BTreeMap<AllocationId, Vec<NodeId>>,
    job_start: SimTime,
    evictions: u32,
    allocations: u32,
    /// Per-market backoff under refusals and provider-wide throttles.
    backoff: MarketBackoff,
    /// Boot-delayed grants: machines join the job at `Launched`.
    pending_launches: BTreeMap<AllocationId, u32>,
    /// Allocations whose eviction warning already drained the machines —
    /// their `Evicted` needs no rollback, unlike a warning-less death.
    warned: BTreeSet<AllocationId>,
    /// Watchdog state: last time a spot request was granted.
    last_grant: SimTime,
    /// Refusals (capacity or throttle) since the last grant.
    refusals_since_grant: u32,
    /// When the watchdog degraded the loop to reliable-only, if active.
    degraded_since: Option<SimTime>,
    /// Next time a degraded loop re-probes the spot markets.
    next_probe: SimTime,
    /// Total time spent degraded.
    degraded_time: SimDuration,
    /// Degraded-mode on-demand fallback allocations and their counts.
    fallback_allocs: Vec<(AllocationId, u32)>,
    /// Counters surfaced in the report.
    refusals: u32,
    throttles: u32,
    partial_grants: u32,
    fallback_on_demand: u32,
    /// Online preemption forecaster (`config.forecast`); `None` leaves
    /// the session bit-identical to a forecasting-free build.
    forecaster: Option<PreemptionForecaster>,
    /// Outstanding alerts: allocation → when the forecast expires and,
    /// absent an eviction, becomes a false positive.
    alerted: BTreeMap<AllocationId, SimTime>,
    /// Holdings the forecaster tracks: allocation → (market, bid), so
    /// released or reclaimed holdings free their trajectory state.
    tracked_bids: BTreeMap<AllocationId, (MarketKey, f64)>,
    /// When the last adaptive checkpoint was taken.
    last_checkpoint: SimTime,
    /// The latest durable checkpoint; session restarts resume from it.
    checkpoint_store: CheckpointStore,
    /// The reliable tier's on-demand allocation — re-acquired when a
    /// restart replaces the tier that was never supposed to fail.
    reliable_alloc: AllocationId,
    /// Reliable machines already killed by chaos injection in the
    /// current job incarnation (cleared on restart).
    dead_reliable: BTreeSet<NodeId>,
    /// Highest training clock the session has observed — the baseline
    /// for `work_lost_to_restart` accounting.
    last_known_clock: u64,
    forecast_alerts: u32,
    pre_drains: u32,
    forecast_hits: u32,
    false_alerts: u32,
    checkpoints: u32,
    reliable_failures: u32,
    restarts: u32,
    work_lost_to_restart: u64,
    /// Observability recorder shared with the provider, the job's
    /// cluster, and BidBrain; `None` keeps the loop allocation-free.
    obs: Option<Arc<Recorder>>,
}

impl<A: MlApp> Proteus<A> {
    /// Launches a session: synthesizes market history, trains β on the
    /// configured window, provisions the reliable tier, starts the
    /// elastic training job, and makes the first allocation decision.
    pub fn launch(
        app: A,
        dataset: Vec<A::Datum>,
        config: ProteusConfig,
    ) -> Result<Self, ProteusError> {
        // `PROTEUS_OBS_OUT` turns recording on; `finish` then exports
        // the timeline as JSONL to that path.
        let obs = proteus_obs::jsonl::export_path().map(|_| Arc::new(Recorder::new()));
        Self::launch_inner(app, dataset, config, obs)
    }

    /// Like [`Proteus::launch`], but records the session onto `rec`
    /// regardless of `PROTEUS_OBS_OUT` — the hook tests use to inspect
    /// the timeline and metrics in-memory.
    pub fn launch_observed(
        app: A,
        dataset: Vec<A::Datum>,
        config: ProteusConfig,
        rec: Arc<Recorder>,
    ) -> Result<Self, ProteusError> {
        Self::launch_inner(app, dataset, config, Some(rec))
    }

    fn launch_inner(
        app: A,
        dataset: Vec<A::Datum>,
        config: ProteusConfig,
        obs: Option<Arc<Recorder>>,
    ) -> Result<Self, ProteusError> {
        config.validate()?;

        // Synthesize the market and train β on its early window — the
        // analogue of loading historical AWS price data (Sec. 5).
        let gen = TraceGenerator::new(config.agile.seed, config.market_model.clone());
        let traces = gen.generate_set(&config.spot_markets, config.market_horizon);
        let mut beta = BetaEstimator::new();
        for m in &config.spot_markets {
            let trace = traces
                .get(m)
                .ok_or(ProteusError::Market(MarketError::UnknownMarket(*m)))?;
            beta.train(
                *m,
                trace,
                SimTime::EPOCH,
                SimTime::EPOCH + config.beta_training,
                SimDuration::from_mins(30),
                &BetaEstimator::default_deltas(),
            );
        }
        let brain = BidBrain::new(config.params, beta, config.brain.clone());

        let mut provider = CloudProvider::with_warning_lead(traces, config.warning_lead);
        if let Some(plan) = config.market_faults.clone() {
            provider.set_fault_plan(plan);
        }
        let job_start = SimTime::EPOCH + config.beta_training;
        if let Some(rec) = &obs {
            rec.set_now(job_start);
            provider.set_recorder(Arc::clone(rec));
        }
        provider.advance_to(job_start)?;
        let reliable_alloc =
            provider.request_on_demand(config.on_demand_market, config.reliable_machines)?;

        let mut job = AgileMlJob::launch(
            app,
            dataset,
            config.agile,
            config.reliable_machines as usize,
            0,
        )?;
        if let Some(rec) = &obs {
            job.attach_recorder(Arc::clone(rec));
            rec.record(
                job_start,
                Event::Session(SessionEvent::Launched {
                    reliable: u64::from(config.reliable_machines),
                }),
            );
            // Open the degraded gauge at 0 so its time-weighted
            // histogram covers the whole session.
            rec.gauge_set(OBS_DEGRADED_GAUGE, job_start, 0.0);
        }

        let backoff = MarketBackoff::new(config.backoff_base, config.backoff_cap);
        let forecaster = config.forecast.clone().map(PreemptionForecaster::new);
        let mut session = Proteus {
            config,
            provider,
            brain,
            job,
            alloc_nodes: BTreeMap::new(),
            job_start,
            evictions: 0,
            allocations: 0,
            backoff,
            pending_launches: BTreeMap::new(),
            warned: BTreeSet::new(),
            last_grant: job_start,
            refusals_since_grant: 0,
            degraded_since: None,
            next_probe: job_start,
            degraded_time: SimDuration::ZERO,
            fallback_allocs: Vec::new(),
            refusals: 0,
            throttles: 0,
            partial_grants: 0,
            fallback_on_demand: 0,
            forecaster,
            alerted: BTreeMap::new(),
            tracked_bids: BTreeMap::new(),
            last_checkpoint: job_start,
            checkpoint_store: CheckpointStore::new(),
            reliable_alloc,
            dead_reliable: BTreeSet::new(),
            last_known_clock: 0,
            forecast_alerts: 0,
            pre_drains: 0,
            forecast_hits: 0,
            false_alerts: 0,
            checkpoints: 0,
            reliable_failures: 0,
            restarts: 0,
            work_lost_to_restart: 0,
            obs,
        };
        session.consider_acquisition()?;
        Ok(session)
    }

    /// The elastic training job (status queries, snapshots, events).
    pub fn job(&mut self) -> &mut AgileMlJob<A> {
        &mut self.job
    }

    /// The attached observability recorder, if the session records.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.obs.as_ref()
    }

    /// Current simulated market time.
    pub fn market_now(&self) -> SimTime {
        self.provider.now()
    }

    /// Aggregate simnet delivery counters for the job's cluster —
    /// delivered and dropped message totals, accounted identically by
    /// both simnet cores. Useful for post-run network-health asserts in
    /// session tests without reaching into the job's cluster.
    pub fn net_stats(&self) -> proteus_simnet::NetStats {
        self.job.net_stats()
    }

    /// Live transient machine count.
    pub fn transient_machines(&self) -> usize {
        self.alloc_nodes.values().map(Vec::len).sum()
    }

    /// Advances the market by `hours`, driving allocation decisions and
    /// elasticity.
    ///
    /// Market time and training are decoupled: the job only moves while
    /// a call is waiting on it, so this advances training just by the
    /// few batches each transition takes to complete. Call
    /// [`Proteus::wait_clock`] to train — a session is a pure function
    /// of its configuration and the calls made on it.
    pub fn run_market_hours(&mut self, hours: f64) -> Result<(), ProteusError> {
        let target = self.provider.now() + SimDuration::from_hours_f64(hours);
        while self.provider.now() < target {
            if let Some(rec) = self.obs.as_deref() {
                // Keep the recorder's sim clock current so mirrored job
                // events are stamped with market time.
                rec.set_now(self.provider.now());
            }
            self.renewals()?;
            self.forecast_step()?;
            self.maybe_checkpoint()?;
            self.consider_acquisition()?;
            let next = (self.provider.now() + DECISION_STEP).min(target);
            let events = self.provider.advance_to(next)?;
            if let Some(rec) = self.obs.as_deref() {
                // The provider stamped its own events at their exact
                // occurrence instants during the advance; move the
                // recorder clock to the end of the step before reacting
                // so mirrored job events never back-date the timeline.
                rec.set_now(self.provider.now());
            }
            for (_, ev) in events {
                self.handle_event(ev)?;
            }
        }
        Ok(())
    }

    /// Waits until the training job completes `clock` global iterations.
    pub fn wait_clock(&mut self, clock: u64) -> Result<(), ProteusError> {
        self.job.wait_clock(clock)?;
        self.last_known_clock = self.last_known_clock.max(clock);
        Ok(())
    }

    fn handle_event(&mut self, ev: ProviderEvent) -> Result<(), ProteusError> {
        match ev {
            ProviderEvent::EvictionWarning { allocation, .. } => {
                // Forward to the elasticity controller: drain within the
                // warning window (the drain itself is wall-clock fast).
                self.warned.insert(allocation);
                if self.alerted.remove(&allocation).is_some() {
                    // The forecaster called this eviction ahead of the
                    // provider: the pre-drain already emptied the nodes.
                    self.forecast_hits += 1;
                }
                if let Some(nodes) = self.alloc_nodes.get(&allocation).cloned() {
                    self.job.evict_with_warning(&nodes)?;
                }
            }
            ProviderEvent::Evicted { allocation } => {
                self.evictions += 1;
                if self.alerted.remove(&allocation).is_some() {
                    // Warning-less death the forecaster still predicted.
                    self.forecast_hits += 1;
                }
                if let Some((market, bid)) = self.tracked_bids.remove(&allocation) {
                    if let Some(fc) = self.forecaster.as_mut() {
                        fc.clear(market, bid);
                    }
                }
                let was_warned = self.warned.remove(&allocation);
                if let Some(nodes) = self.alloc_nodes.remove(&allocation) {
                    if !was_warned && !nodes.is_empty() {
                        // A warning-less death (infant mortality): the
                        // machines vanish abruptly and AgileML rolls
                        // back from the BackupPSs.
                        self.job.fail_nodes(&nodes)?;
                    }
                }
                // Free compute was already banked; BidBrain reconsiders
                // immediately after evictions (Sec. 5).
                self.consider_acquisition()?;
            }
            ProviderEvent::HourCharged { .. } => {}
            ProviderEvent::Launched { allocation } => {
                // A boot-delayed grant came up: its machines join now.
                if let Some(count) = self.pending_launches.remove(&allocation) {
                    let nodes = self
                        .job
                        .add_machines(NodeClass::Transient, count as usize)?;
                    self.alloc_nodes.insert(allocation, nodes);
                }
            }
            ProviderEvent::LaunchFailed { allocation } => {
                // The market moved before the instances booted; nothing
                // was billed and no machines existed. Re-plan.
                self.pending_launches.remove(&allocation);
                self.consider_acquisition()?;
            }
        }
        Ok(())
    }

    /// One forecasting sweep: feed live prices for every held spot
    /// allocation, pre-drain on fresh alerts, age out expired ones as
    /// false positives, and drop trajectory state for holdings that no
    /// longer exist. A no-op (and allocation-free) with forecasting off.
    fn forecast_step(&mut self) -> Result<(), ProteusError> {
        if self.forecaster.is_none() {
            return Ok(());
        }
        let now = self.provider.now();
        let allocs: Vec<_> = self.provider.live_spot().collect();

        // Holdings released or reclaimed since the last sweep stop
        // being tracked; their outstanding alerts are moot (a voluntary
        // release is neither a hit nor a false positive).
        let live: BTreeSet<AllocationId> = allocs.iter().map(|a| a.id).collect();
        let stale: Vec<AllocationId> = self
            .tracked_bids
            .keys()
            .filter(|id| !live.contains(id))
            .copied()
            .collect();
        for id in stale {
            if let Some((market, bid)) = self.tracked_bids.remove(&id) {
                if let Some(fc) = self.forecaster.as_mut() {
                    fc.clear(market, bid);
                }
            }
            self.alerted.remove(&id);
        }

        for a in allocs {
            if a.is_booting() {
                continue;
            }
            let Ok(price) = self.provider.spot_price(a.market) else {
                continue;
            };
            self.tracked_bids.insert(a.id, (a.market, a.bid));
            let Some(fc) = self.forecaster.as_mut() else {
                break;
            };
            let Some(alert) = fc.observe(a.market, a.bid, now, price) else {
                continue;
            };
            self.forecast_alerts += 1;
            let expiry = now + fc.config().horizon + self.config.warning_lead + DECISION_STEP;
            if let Some(rec) = self.obs.as_deref() {
                rec.record(
                    now,
                    Event::Bid(BidEvent::ForecastAlert {
                        market: a.market.interned_name(),
                        bid: a.bid,
                        hazard: alert.confidence,
                        horizon_ms: alert.horizon.as_millis(),
                    }),
                );
            }
            // One outstanding alert per allocation; a holding the
            // provider already warned is mid-drain and needs no help.
            if self.alerted.contains_key(&a.id) || self.warned.contains(&a.id) {
                continue;
            }
            self.alerted.insert(a.id, expiry);
            if let Some(nodes) = self.alloc_nodes.get(&a.id).cloned() {
                if !nodes.is_empty() {
                    self.job.pre_drain(&nodes)?;
                    self.pre_drains += 1;
                    if let Some(rec) = self.obs.as_deref() {
                        rec.record(
                            now,
                            Event::Session(SessionEvent::PreDrained { allocation: a.id.0 }),
                        );
                    }
                }
            }
        }

        // Alerts that outlived their horizon with no eviction were
        // false positives: the pre-drain cost migration time, nothing
        // else — correctness is untouched by construction.
        let expired: Vec<AllocationId> = self
            .alerted
            .iter()
            .filter(|(_, expiry)| now >= **expiry)
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            self.alerted.remove(&id);
            self.false_alerts += 1;
            if let Some(rec) = self.obs.as_deref() {
                rec.record(
                    now,
                    Event::Session(SessionEvent::ForecastFalseAlert { allocation: id.0 }),
                );
            }
        }
        Ok(())
    }

    /// Adaptive checkpointing: snapshot the model at the Young's-rule
    /// interval derived from the forecasted hazard — tight cadence when
    /// an eviction looms, relaxed when the market is calm. Inactive
    /// (zero snapshots, zero events) with forecasting off.
    fn maybe_checkpoint(&mut self) -> Result<(), ProteusError> {
        let Some(fc) = self.forecaster.as_ref() else {
            return Ok(());
        };
        let now = self.provider.now();
        let interval =
            fc.checkpoint_interval(self.config.checkpoint_cost, CHECKPOINT_MIN, CHECKPOINT_MAX);
        if now.since(self.last_checkpoint) < interval {
            return Ok(());
        }
        self.take_checkpoint(now, interval.as_millis())
    }

    /// Forces a durable checkpoint immediately, regardless of the
    /// adaptive cadence. Returns the checkpointed clock. Chaos
    /// harnesses (and an operator about to do something risky) use this
    /// to bound the work a subsequent restart can lose.
    pub fn checkpoint_now(&mut self) -> Result<u64, ProteusError> {
        let now = self.provider.now();
        self.take_checkpoint(now, 0)?;
        Ok(self.checkpoint_store.latest().map_or(0, |c| c.clock))
    }

    /// Fetches a consistent model snapshot from the job and serializes
    /// it into the durable store, superseding the previous checkpoint.
    /// All timing here is modeled sim-time — a fault-free run's
    /// checkpoint schedule (and therefore its whole timeline) stays
    /// bit-identical across repetitions.
    fn take_checkpoint(&mut self, now: SimTime, interval_ms: u64) -> Result<(), ProteusError> {
        self.last_checkpoint = now;
        self.checkpoints += 1;
        let snap = self.job.snapshot()?;
        self.last_known_clock = self.last_known_clock.max(snap.clock);
        let bytes = self.checkpoint_store.save(&snap, now);
        if let Some(rec) = self.obs.as_deref() {
            rec.record(
                now,
                Event::Session(SessionEvent::CheckpointTaken {
                    interval_ms,
                    bytes,
                    clock: snap.clock,
                }),
            );
        }
        Ok(())
    }

    /// BidBrain's view of current holdings, each spot view with the
    /// allocation it describes (`None` for the on-demand tiers).
    fn holdings(&self) -> impl Iterator<Item = (Option<AllocationId>, AllocView)> + '_ {
        let now = self.provider.now();
        let market = self.config.on_demand_market;
        let reliable = AllocView::on_demand(market, self.config.reliable_machines, 0.0);
        // Degraded-mode fallback machines compute, unlike the reliable
        // tier's serving-only role.
        let fallback = self.fallback_allocs.iter().map(move |&(_, count)| {
            AllocView::on_demand(market, count, f64::from(market.instance_type().vcpus))
        });
        // Booting instances are not billed and not computing until
        // launch.
        let spot = self
            .provider
            .live_spot()
            .filter(|a| !a.is_booting())
            .map(move |a| (Some(a.id), AllocView::held(a, now)));
        std::iter::once(reliable)
            .chain(fallback)
            .map(|view| (None, view))
            .chain(spot)
    }

    /// BidBrain's footprint view of current holdings.
    fn footprint(&self) -> Vec<AllocView> {
        self.holdings().map(|(_, view)| view).collect()
    }

    /// One acquisition sweep: walk BidBrain's ranked candidates until a
    /// market grants, treating refusals as typed, transient outcomes.
    ///
    /// * capacity refusal → back that market off and try the next-best
    ///   market per Eq. 4;
    /// * throttle → back off provider-wide until the suggested retry;
    /// * no grant for a watchdog window → degrade to reliable-only with
    ///   an optional on-demand fallback, re-probing once per window.
    fn consider_acquisition(&mut self) -> Result<(), ProteusError> {
        let now = self.provider.now();
        if self.degraded_since.is_some() {
            // Degraded: don't hammer a wedged market every step.
            if now < self.next_probe {
                return Ok(());
            }
            self.next_probe = now + self.config.watchdog_window;
        }
        let headroom = self
            .config
            .max_machines
            .saturating_sub(self.config.reliable_machines)
            .saturating_sub(self.transient_machines() as u32)
            .saturating_sub(self.pending_launches.values().sum::<u32>());
        if headroom == 0 {
            return Ok(());
        }
        let prices: Vec<_> = self
            .config
            .spot_markets
            .iter()
            .filter(|m| !self.backoff.is_blocked(**m, now))
            .filter_map(|m| self.provider.spot_price(*m).ok().map(|p| (*m, p)))
            .collect();
        let footprint = self.footprint();
        let walk = self.brain.acquire(
            &mut self.provider,
            &footprint,
            &prices,
            headroom,
            self.obs.as_deref(),
        );
        // Capacity refusals are market-local: back each market off.
        for &market in &walk.refused {
            self.refusals += 1;
            self.refusals_since_grant += 1;
            self.backoff.on_refusal(market, now);
        }
        match walk.stopped {
            None => {}
            Some(MarketError::RequestLimitExceeded { retry_after }) => {
                self.throttles += 1;
                self.refusals_since_grant += 1;
                self.backoff.on_throttle(now, retry_after);
            }
            Some(e) => return Err(e.into()),
        }
        let Some((req, grant)) = walk.granted else {
            return self.maybe_degrade(now);
        };
        self.backoff.on_success(req.market);
        self.allocations += 1;
        if grant.is_partial() {
            self.partial_grants += 1;
        }
        self.last_grant = now;
        self.refusals_since_grant = 0;
        if grant.usable_at > now {
            // Machines join the job when the provider reports the launch.
            self.pending_launches.insert(grant.id, grant.granted);
        } else {
            let nodes = self
                .job
                .add_machines(NodeClass::Transient, grant.granted as usize)?;
            self.alloc_nodes.insert(grant.id, nodes);
        }
        self.exit_degraded(now)
    }

    /// Watchdog: if refusals have kept the loop grantless for a full
    /// window, degrade to the reliable tier instead of spinning, and
    /// provision the configured on-demand fallback so the job keeps
    /// making progress through the drought.
    fn maybe_degrade(&mut self, now: SimTime) -> Result<(), ProteusError> {
        if self.degraded_since.is_some()
            || self.refusals_since_grant == 0
            || now.since(self.last_grant) < self.config.watchdog_window
        {
            return Ok(());
        }
        self.degraded_since = Some(now);
        self.next_probe = now + self.config.watchdog_window;
        if let Some(rec) = self.obs.as_deref() {
            rec.record(now, Event::Session(SessionEvent::Degraded));
            rec.gauge_set(OBS_DEGRADED_GAUGE, now, 1.0);
        }
        if self.config.fallback_on_demand > 0 && self.fallback_allocs.is_empty() {
            let count = self.config.fallback_on_demand;
            let id = self
                .provider
                .request_on_demand(self.config.on_demand_market, count)?;
            let nodes = self
                .job
                .add_machines(NodeClass::Transient, count as usize)?;
            self.alloc_nodes.insert(id, nodes);
            self.fallback_allocs.push((id, count));
            self.fallback_on_demand += count;
            if let Some(rec) = self.obs.as_deref() {
                rec.record(
                    now,
                    Event::Session(SessionEvent::FallbackLaunched { allocation: id.0 }),
                );
            }
        }
        Ok(())
    }

    /// Leaves degraded mode after a successful grant: bank the degraded
    /// interval and release the on-demand fallback (spot is cheaper).
    fn exit_degraded(&mut self, now: SimTime) -> Result<(), ProteusError> {
        let Some(since) = self.degraded_since.take() else {
            return Ok(());
        };
        self.degraded_time += now.since(since);
        if let Some(rec) = self.obs.as_deref() {
            rec.record(
                now,
                Event::Session(SessionEvent::Restored {
                    degraded_ms: now.since(since).as_millis(),
                }),
            );
            rec.gauge_set(OBS_DEGRADED_GAUGE, now, 0.0);
            rec.span(OBS_DEGRADED_SPAN, since, now);
        }
        for (id, _) in std::mem::take(&mut self.fallback_allocs) {
            if let Some(nodes) = self.alloc_nodes.remove(&id) {
                self.job.evict_with_warning(&nodes)?;
            }
            let _ = self.provider.terminate(id);
        }
        Ok(())
    }

    /// Chaos injection: one live spot allocation vanishes with **no
    /// usable warning** (the paper's "effective failure": the two-minute
    /// notice arrived too late to drain). The machines are killed
    /// abruptly and AgileML runs online rollback recovery from the
    /// BackupPSs. Returns the clock the job rolled back to, or `None`
    /// when no spot allocation is live.
    pub fn inject_failure(&mut self) -> Result<Option<u64>, ProteusError> {
        let Some((&alloc, _)) = self.alloc_nodes.iter().next() else {
            return Ok(None);
        };
        let nodes = self.alloc_nodes.remove(&alloc).unwrap_or_default();
        // The provider took the machines, so it settles as an eviction:
        // the current hour is refunded and its usage was free. An
        // on-demand fallback is never revoked; it is released instead.
        if self.provider.revoke(alloc).is_err() {
            let _ = self.provider.terminate(alloc);
        }
        self.evictions += 1;
        let rolled = self.job.fail_nodes(&nodes)?;
        Ok(Some(rolled))
    }

    /// Chaos injection on the tier that "never fails": `count` reliable
    /// worker machines die abruptly (no warning, no failure report
    /// beyond the harness's own). The controller first attempts in-job
    /// repair — re-replicating the dead machines' BackupPS partitions
    /// onto surviving reliable machines; if the loss is unrepairable it
    /// raises a typed fault and the session restarts the whole job from
    /// the last durable checkpoint. Returns which of those happened.
    pub fn inject_reliable_failure(
        &mut self,
        count: usize,
    ) -> Result<ReliableRecovery, ProteusError> {
        if let Ok(st) = self.job.status() {
            self.last_known_clock = self.last_known_clock.max(st.min_clock);
        }
        let victims: Vec<NodeId> = self
            .job
            .reliable_machines()
            .iter()
            .copied()
            .filter(|n| !self.dead_reliable.contains(n))
            .take(count)
            .collect();
        if victims.is_empty() {
            return Ok(ReliableRecovery::NoOp);
        }
        self.reliable_failures += 1;
        self.dead_reliable.extend(victims.iter().copied());
        match self.job.fail_reliable_nodes(&victims) {
            Ok(_) => Ok(ReliableRecovery::Repaired),
            Err(JobError::Fault(_)) => {
                self.restart_from_checkpoint()?;
                Ok(ReliableRecovery::Restarted)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Chaos injection: the **entire** reliable tier — every reliable
    /// worker machine and the controller host itself — vanishes at
    /// once. No in-job protocol can survive this (there is nobody left
    /// to run one), so the session restarts from the last durable
    /// checkpoint: tear down, re-acquire reliable capacity, relaunch.
    /// Returns the clock the restarted job resumed from.
    pub fn inject_total_reliable_failure(&mut self) -> Result<u64, ProteusError> {
        if let Ok(st) = self.job.status() {
            self.last_known_clock = self.last_known_clock.max(st.min_clock);
        }
        self.reliable_failures += 1;
        let mut doomed: Vec<NodeId> = self.job.reliable_machines().to_vec();
        doomed.push(self.job.controller_node());
        self.job.kill_silent(&doomed);
        self.restart_from_checkpoint()
    }

    /// Session-level restart: the current job incarnation is
    /// unsalvageable (reliable tier gone, controller possibly
    /// included). Bills the losses, tears the old cluster down,
    /// re-acquires the reliable tier from the provider, and relaunches
    /// the job from the last durable checkpoint — or from scratch if no
    /// checkpoint was ever taken. Returns the resumed clock.
    fn restart_from_checkpoint(&mut self) -> Result<u64, ProteusError> {
        let now = self.provider.now();
        self.restarts += 1;
        let snap = self.checkpoint_store.restore()?;
        let resumed = snap.as_ref().map_or(0, |s| s.clock);
        let lost = self.last_known_clock.saturating_sub(resumed);
        self.work_lost_to_restart += lost;

        // Every transient holding dies with the old cluster — its
        // machines are nodes of the job being torn down. Terminate
        // the allocations; their current hours are already paid.
        for (id, _) in std::mem::take(&mut self.alloc_nodes) {
            let _ = self.provider.terminate(id);
        }
        for (id, _) in std::mem::take(&mut self.pending_launches) {
            let _ = self.provider.terminate(id);
        }
        self.fallback_allocs.clear();
        self.warned.clear();
        self.alerted.clear();
        self.tracked_bids.clear();
        // No holding survives, so no trajectory may either: a stale one
        // would keep its hazard in `max_hazard` and the checkpoint
        // cadence for the rest of the session.
        self.forecaster = self.config.forecast.clone().map(PreemptionForecaster::new);
        self.dead_reliable.clear();

        // The reliable hosts are dead too: release the old allocation
        // and provision a fresh tier for the relaunch.
        let _ = self.provider.terminate(self.reliable_alloc);
        self.reliable_alloc = self
            .provider
            .request_on_demand(self.config.on_demand_market, self.config.reliable_machines)?;

        self.job
            .relaunch_from_checkpoint(self.config.reliable_machines as usize, 0, snap)?;
        self.last_known_clock = resumed;
        if let Some(rec) = self.obs.as_deref() {
            rec.record(
                now,
                Event::Session(SessionEvent::CheckpointRestored {
                    clock: resumed,
                    work_lost: lost,
                }),
            );
        }
        // Spot re-acquisition resumes on the normal decision cadence.
        self.consider_acquisition()?;
        Ok(resumed)
    }

    /// Hour-end renewal decisions: allocations not worth renewing are
    /// released (machines leave gracefully — a voluntary drain).
    fn renewals(&mut self) -> Result<(), ProteusError> {
        let now = self.provider.now();
        let expiring: Vec<Expiring> = self
            .provider
            .live_spot()
            .filter_map(|a| {
                Expiring::due(a, now, self.provider.spot_price(a.market).unwrap_or(a.bid))
            })
            .collect();
        if expiring.is_empty() {
            return Ok(());
        }
        for id in self.brain.renewals(self.holdings(), &expiring) {
            if let Some(nodes) = self.alloc_nodes.remove(&id) {
                self.job.evict_with_warning(&nodes)?;
            }
            let _ = self.provider.terminate(id);
        }
        Ok(())
    }

    /// Finishes the session: terminates holdings, shuts the job down,
    /// and returns the bill and training outcome.
    ///
    /// The on-demand tier is terminated immediately; per Sec. 5, spot
    /// allocations would idle to the end of their billing hours hoping
    /// for a refund — the simulated equivalent simply terminates them,
    /// since their current hours are already paid either way.
    pub fn finish(mut self) -> Result<ProteusReport, ProteusError> {
        let dataset: Vec<A::Datum> = self.job.dataset().to_vec();
        let final_objective = self.job.objective(&dataset)?;
        let status = self.job.status()?;
        for (id, _) in std::mem::take(&mut self.alloc_nodes) {
            let _ = self.provider.terminate(id);
        }
        for (id, _) in std::mem::take(&mut self.pending_launches) {
            let _ = self.provider.terminate(id);
        }
        if let Some(since) = self.degraded_since.take() {
            self.degraded_time += self.provider.now().since(since);
            if let Some(rec) = self.obs.as_deref() {
                rec.span(OBS_DEGRADED_SPAN, since, self.provider.now());
            }
        }
        let market_time = self.provider.now() - self.job_start;
        self.job.shutdown()?;
        if let Some(rec) = self.obs.as_deref() {
            let now = self.provider.now();
            rec.set_now(now);
            rec.record(
                now,
                Event::Session(SessionEvent::Finished {
                    cost: self.provider.account().total_cost(),
                    clocks: status.min_clock,
                }),
            );
            // Fold the open degraded gauge interval into its histogram
            // so `time_at(1.0)` matches the report's `degraded_time`.
            rec.close_gauges(now);
            if let Some(path) = proteus_obs::jsonl::export_path() {
                if let Err(e) = std::fs::write(&path, rec.to_jsonl()) {
                    // The report is still valid; only the export failed.
                    eprintln!("warning: could not write {}: {e}", path);
                }
            }
        }
        Ok(ProteusReport {
            cost: self.provider.account().total_cost(),
            market_time,
            usage: *self.provider.account().usage(),
            evictions: self.evictions,
            allocations: self.allocations,
            clocks: status.min_clock,
            final_objective,
            refusals: self.refusals,
            throttles: self.throttles,
            partial_grants: self.partial_grants,
            degraded_time: self.degraded_time,
            fallback_on_demand: self.fallback_on_demand,
            forecast_alerts: self.forecast_alerts,
            pre_drains: self.pre_drains,
            forecast_hits: self.forecast_hits,
            false_alerts: self.false_alerts,
            checkpoints: self.checkpoints,
            reliable_failures: self.reliable_failures,
            restarts: self.restarts,
            work_lost_to_restart: self.work_lost_to_restart,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_bidbrain::ForecastConfig;
    use proteus_mlapps::data::{netflix_like, MfDataConfig};
    use proteus_mlapps::mf::{MatrixFactorization, MfConfig};

    /// The forecaster holds a trajectory for exactly the distinct
    /// `(market, bid)` pairs of the holdings the session tracks, and
    /// every tracked holding is live.
    fn assert_tracks_only_live(s: &Proteus<MatrixFactorization>) {
        let live: BTreeSet<AllocationId> = s.provider.live_spot().map(|a| a.id).collect();
        assert!(s.tracked_bids.keys().all(|id| live.contains(id)));
        let pairs: BTreeSet<(MarketKey, u64)> = s
            .tracked_bids
            .values()
            .map(|&(market, bid)| (market, bid.to_bits()))
            .collect();
        let fc = s.forecaster.as_ref().expect("forecasting on");
        assert_eq!(fc.tracked(), pairs.len(), "trajectories of dead holdings");
    }

    #[test]
    fn restart_forgets_the_trajectories_of_terminated_holdings() {
        let app = MatrixFactorization::new(MfConfig {
            rows: 30,
            cols: 20,
            rank: 3,
            learning_rate: 0.05,
            reg: 1e-4,
            init_scale: 0.2,
        });
        let data = netflix_like(
            &MfDataConfig {
                rows: 30,
                cols: 20,
                true_rank: 2,
                observed: 500,
                noise: 0.02,
            },
            7,
        );
        let config = ProteusConfig {
            max_machines: 8,
            forecast: Some(ForecastConfig::default()),
            ..ProteusConfig::default()
        };
        let mut session = Proteus::launch(app, data, config).expect("launch");
        for _ in 0..30 {
            if !session.tracked_bids.is_empty() {
                break;
            }
            session
                .run_market_hours(DECISION_STEP.as_hours_f64())
                .expect("market step");
        }
        assert!(!session.tracked_bids.is_empty(), "no holding was tracked");
        assert_tracks_only_live(&session);

        session.inject_total_reliable_failure().expect("restart");
        assert_tracks_only_live(&session);
        session
            .run_market_hours(DECISION_STEP.as_hours_f64())
            .expect("market step");
        assert_tracks_only_live(&session);
    }
}
