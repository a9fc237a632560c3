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

use std::collections::BTreeMap;
use std::sync::Arc;

use proteus_agileml::{AgileMlJob, JobError};
use proteus_bidbrain::{
    AllocView, AppParams, BetaEstimator, BidBrain, BidBrainConfig, MarketBackoff,
    PreemptionForecaster, DECISION_STEP, FORECAST_HORIZON,
};
use proteus_market::{
    catalog, AllocationId, CloudProvider, MarketError, ProviderEvent, TraceGenerator,
};
use proteus_mlapps::app::MlApp;
use proteus_obs::{BidEvent, Event, Recorder, SessionEvent};
use proteus_simnet::{NodeClass, NodeId};
use proteus_simtime::{SimDuration, SimTime};

use crate::checkpoint::CheckpointStore;
use crate::config::ProteusConfig;
use crate::error::ProteusError;
use crate::report::{ProteusReport, SessionTally};

/// vCPUs BidBrain provisions toward: twelve c4.xlarge instances.
const TARGET_CORES: u32 = 48;

/// Most instances one allocation request asks for.
const MAX_ALLOC_INSTANCES: u32 = 4;

/// How long the acquisition loop may go with refusals and no grant
/// before the watchdog declares it wedged and degrades to the reliable
/// tier (plus [`FALLBACK_ON_DEMAND`] machines). While degraded, the
/// spot sweep is re-probed once per window.
const WATCHDOG_WINDOW: SimDuration = SimDuration::from_mins(20);

/// On-demand machines provisioned when the watchdog degrades, so
/// forward progress never depends on a drought ending.
pub(crate) const FALLBACK_ON_DEMAND: u32 = 1;

/// Backoff after a market refuses a request; it doubles per
/// consecutive refusal, up to [`BACKOFF_CAP`].
const BACKOFF_BASE: SimDuration = SimDuration::from_mins(2);

/// Cap on the per-market backoff delay.
const BACKOFF_CAP: SimDuration = SimDuration::from_mins(30);

/// Modelled wall time one model snapshot takes: the `C` in the
/// Young's-rule interval `τ* = √(2·C·MTTF)` adaptive checkpointing uses.
const CHECKPOINT_COST: SimDuration = SimDuration::from_mins(2);

const _: () = assert!(
    WATCHDOG_WINDOW.as_millis() >= DECISION_STEP.as_millis(),
    "the watchdog window must cover at least one decision step"
);
const _: () = assert!(
    BACKOFF_BASE.as_millis() <= BACKOFF_CAP.as_millis(),
    "the backoff base must not exceed its cap"
);
const _: () = assert!(!CHECKPOINT_COST.is_zero(), "a checkpoint must cost time");

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

/// What the session holds of one spot grant or on-demand fallback: only
/// the facts the provider cannot answer.
#[derive(Default)]
struct Holding {
    /// Its machines in the job; `None` while the grant boots.
    nodes: Option<Vec<NodeId>>,
    /// Instances granted.
    count: u32,
    /// A degraded-mode on-demand fallback, not a spot grant.
    fallback: bool,
    /// A warning drained it, so its `Evicted` needs no rollback.
    warned: bool,
    /// When its outstanding forecast alert turns false positive.
    alert: Option<SimTime>,
}

/// A live Proteus session over one training job.
pub struct Proteus<A: MlApp> {
    config: ProteusConfig,
    // The session owns its synthesized market history and trained β, so
    // both engines hold the `'static` (owned) ends of their borrow-or-own
    // APIs.
    provider: CloudProvider<'static>,
    brain: BidBrain<'static>,
    job: AgileMlJob<A>,
    /// One entry per spot grant or on-demand fallback the session holds
    /// (not the reliable tier). An entry leaves through `remove_holding`,
    /// or through `terminate_all` at a restart or `finish`.
    held: BTreeMap<AllocationId, Holding>,
    job_start: SimTime,
    /// Per-market backoff under refusals and provider-wide throttles.
    backoff: MarketBackoff,
    /// Watchdog state: last time a spot request was granted.
    last_grant: SimTime,
    /// Refusals (capacity or throttle) since the last grant.
    refusals_since_grant: u32,
    /// While the watchdog has degraded the loop to reliable-only: since
    /// when, and the next time it re-probes the spot markets.
    degraded: Option<(SimTime, SimTime)>,
    /// Online preemption forecaster (`config.forecast`); `None` leaves
    /// the session bit-identical to a forecasting-free build.
    forecaster: Option<PreemptionForecaster>,
    /// When the last adaptive checkpoint was taken.
    last_checkpoint: SimTime,
    /// The latest durable checkpoint; session restarts resume from it.
    checkpoint_store: CheckpointStore,
    /// The reliable tier's on-demand allocation — re-acquired when a
    /// restart replaces the tier that was never supposed to fail.
    reliable_alloc: AllocationId,
    /// Highest training clock the session has observed — the baseline
    /// for `work_lost_to_restart` accounting.
    last_known_clock: u64,
    /// The report fold every session event is applied to.
    tally: SessionTally,
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
        let obs = proteus_obs::export_path().map(|_| Arc::new(Recorder::new()));
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
        // analogue of loading historical AWS price data (Sec. 5). The
        // paper's markets are in market order, so BidBrain ranks them in
        // the provider's price order.
        let gen = TraceGenerator::new(config.agile.seed, config.market_model.clone());
        let spot_markets = catalog::paper_markets();
        let traces = gen.generate_set(&spot_markets, config.market_horizon);
        let mut beta = BetaEstimator::new();
        for m in &spot_markets {
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
        let policy = BidBrainConfig {
            target_cores: TARGET_CORES,
            max_alloc_instances: MAX_ALLOC_INSTANCES,
            ..BidBrainConfig::default()
        };
        let brain = BidBrain::new(AppParams::default(), beta, policy);

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
        }

        let backoff = MarketBackoff::new(BACKOFF_BASE, BACKOFF_CAP);
        let forecaster = config.forecast.map(PreemptionForecaster::new);
        let reliable = u64::from(config.reliable_machines);
        let mut session = Proteus {
            config,
            provider,
            brain,
            job,
            held: BTreeMap::new(),
            job_start,
            backoff,
            last_grant: job_start,
            refusals_since_grant: 0,
            degraded: None,
            forecaster,
            last_checkpoint: job_start,
            checkpoint_store: CheckpointStore::new(),
            reliable_alloc,
            last_known_clock: 0,
            tally: SessionTally::default(),
            obs,
        };
        session.emit(
            job_start,
            Event::Session(SessionEvent::Launched { reliable }),
        );
        session.consider_acquisition()?;
        Ok(session)
    }

    /// Emits one session event at `t` (see [`SessionTally::emit`]).
    fn emit(&mut self, t: SimTime, event: Event) {
        self.tally.emit(self.obs.as_deref(), t, event);
    }

    /// The elastic training job (status queries, snapshots, events).
    pub fn job(&mut self) -> &mut AgileMlJob<A> {
        &mut self.job
    }

    /// Current simulated market time.
    pub fn market_now(&self) -> SimTime {
        self.provider.now()
    }

    /// Live transient machine count.
    pub fn transient_machines(&self) -> usize {
        self.held.values().flat_map(|h| &h.nodes).flatten().count()
    }

    /// Whether the table and the provider agree: the spot entries are
    /// exactly the live spot allocations, an entry has no nodes exactly
    /// while its allocation boots, the provider's other instances are
    /// the reliable tier's plus the fallback entries', and the
    /// forecaster watches no holding the table has let go.
    fn table_agrees(&self) -> bool {
        let spot = self.provider.live_spot();
        let entries = self.held.iter().filter(|(_, h)| !h.fallback);
        let instances: u32 = self.held.values().map(|h| h.count).sum();
        let mut watched = self.forecaster.iter().flat_map(|fc| fc.watched());
        spot.map(|a| (a.id, a.count, a.is_booting()))
            .eq(entries.map(|(id, h)| (*id, h.count, h.nodes.is_none())))
            && self.held.values().all(|h| !h.fallback || h.nodes.is_some())
            && self.provider.live_instance_count() == self.config.reliable_machines + instances
            && watched.all(|(id, ..)| self.held.contains_key(&id))
    }

    /// The smallest-id holding `pred` accepts.
    fn first_held(&self, pred: impl Fn(&Holding) -> bool) -> Option<AllocationId> {
        self.held.iter().find(|(_, h)| pred(h)).map(|(id, _)| *id)
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
            debug_assert!(self.table_agrees(), "the holding table left the provider");
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
                let Some(h) = self.held.get_mut(&allocation) else {
                    return Ok(());
                };
                h.warned = true;
                let (alerted, nodes) = (h.alert.take().is_some(), h.nodes.clone());
                if alerted {
                    // The forecaster called this eviction ahead of the
                    // provider: the pre-drain already emptied the nodes.
                    self.emit_hit(allocation);
                }
                // Forward to the elasticity controller: drain within the
                // warning window (the drain itself is wall-clock fast).
                if let Some(nodes) = nodes {
                    self.job.evict_with_warning(&nodes)?;
                }
            }
            ProviderEvent::Evicted { allocation } => {
                if let Some(h) = self.remove_holding(allocation) {
                    if h.alert.is_some() {
                        // Warning-less death the forecaster still predicted.
                        self.emit_hit(allocation);
                    }
                    if let Some(nodes) = h.nodes.filter(|_| !h.warned) {
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
            ProviderEvent::Launched { allocation } => {
                // A boot-delayed grant came up: its machines join now.
                if let Some(h) = self.held.get_mut(&allocation) {
                    let nodes = self
                        .job
                        .add_machines(NodeClass::Transient, h.count as usize)?;
                    h.nodes = Some(nodes);
                }
            }
            ProviderEvent::LaunchFailed { allocation } => {
                // The market moved before the instances booted; nothing
                // was billed and no machines existed. Re-plan.
                self.remove_holding(allocation);
                self.consider_acquisition()?;
            }
        }
        Ok(())
    }

    /// Removes `id`'s entry, the way a single holding leaves the table,
    /// and has the forecaster forget it at once: the step may re-grant
    /// its market at its bid, and the new holding starts afresh.
    fn remove_holding(&mut self, id: AllocationId) -> Option<Holding> {
        let h = self.held.remove(&id)?;
        if let Some(fc) = self.forecaster.as_mut() {
            fc.release(id, &self.provider);
        }
        Some(h)
    }

    /// A provider warning or eviction confirmed `allocation`'s
    /// outstanding alert.
    fn emit_hit(&mut self, allocation: AllocationId) {
        let hit = SessionEvent::ForecastHit {
            allocation: allocation.0,
        };
        self.emit(self.provider.now(), Event::Session(hit));
    }

    /// One forecasting sweep: the forecaster watches every launched spot
    /// holding; fresh alerts pre-drain, and expired ones age out as false
    /// positives. A no-op (and allocation-free) with forecasting off.
    fn forecast_step(&mut self) -> Result<(), ProteusError> {
        let Some(fc) = self.forecaster.as_mut() else {
            return Ok(());
        };
        let now = self.provider.now();
        let expiry = now + FORECAST_HORIZON + self.config.warning_lead + DECISION_STEP;
        for (id, alert) in fc.watch(&self.provider, now) {
            let Some(h) = self.held.get_mut(&id) else {
                continue;
            };
            // One outstanding alert per allocation; a holding the
            // provider already warned is mid-drain and needs no help.
            let fresh = h.alert.is_none() && !h.warned;
            h.alert = h.alert.or(fresh.then_some(expiry));
            let drain = h.nodes.clone().filter(|_| fresh);
            // Rendered, not interned: the fold needs the event with no
            // recorder attached, and interning takes a global lock.
            let alert = BidEvent::ForecastAlert {
                market: alert.market.to_string().into(),
                bid: alert.bid,
                hazard: alert.confidence,
                horizon_ms: alert.horizon.as_millis(),
            };
            self.emit(now, Event::Bid(alert));
            if let Some(nodes) = drain {
                self.job.pre_drain(&nodes)?;
                let drained = SessionEvent::PreDrained { allocation: id.0 };
                self.emit(now, Event::Session(drained));
            }
        }

        // Alerts that outlived their horizon with no eviction were
        // false positives: the pre-drain cost migration time, nothing
        // else — correctness is untouched by construction.
        let mut expired = Vec::new();
        for (id, h) in &mut self.held {
            if h.alert.take_if(|expiry| now >= *expiry).is_some() {
                expired.push(SessionEvent::ForecastFalseAlert { allocation: id.0 });
            }
        }
        for false_alert in expired {
            self.emit(now, Event::Session(false_alert));
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
        let interval = fc.checkpoint_interval(CHECKPOINT_COST);
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
        let snap = self.job.snapshot()?;
        self.last_known_clock = self.last_known_clock.max(snap.clock);
        let bytes = self.checkpoint_store.save(&snap, now);
        let taken = SessionEvent::CheckpointTaken {
            interval_ms,
            bytes,
            clock: snap.clock,
        };
        self.emit(now, Event::Session(taken));
        Ok(())
    }

    /// BidBrain's view of the on-demand tiers: the reliable tier, then
    /// any degraded-mode fallback, whose machines compute, unlike the
    /// reliable tier's serving-only role.
    fn tiers(&self) -> Vec<AllocView> {
        let market = self.config.on_demand_market;
        let reliable = AllocView::on_demand(market, self.config.reliable_machines, 0.0);
        let fallback = self.held.values().filter(|h| h.fallback).map(|h| {
            AllocView::on_demand(market, h.count, f64::from(market.instance_type().vcpus))
        });
        std::iter::once(reliable).chain(fallback).collect()
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
        if let Some((_, next_probe)) = &mut self.degraded {
            // Degraded: don't hammer a wedged market every step.
            if now < *next_probe {
                return Ok(());
            }
            *next_probe = now + WATCHDOG_WINDOW;
        }
        // Booting grants count: their machines are on the way.
        let headroom = self
            .config
            .max_machines
            .saturating_sub(self.config.reliable_machines)
            .saturating_sub(self.held.values().map(|h| h.count).sum::<u32>());
        if headroom == 0 {
            return Ok(());
        }
        let tiers = self.tiers();
        let walk = self.brain.acquire(
            &mut self.provider,
            &tiers,
            |market| !self.backoff.is_blocked(market, now),
            headroom,
            self.obs.as_deref(),
        );
        // Capacity refusals are market-local: back each market off.
        for &market in &walk.refused {
            self.refusals_since_grant += 1;
            self.backoff.on_refusal(market, now);
        }
        match walk.stopped {
            None => {}
            Some(MarketError::RequestLimitExceeded { retry_after }) => {
                self.refusals_since_grant += 1;
                self.backoff.on_throttle(now, retry_after);
            }
            Some(e) => return Err(e.into()),
        }
        let Some((req, grant)) = walk.granted else {
            return self.maybe_degrade(now);
        };
        self.backoff.on_success(req.market);
        self.last_grant = now;
        self.refusals_since_grant = 0;
        let count = grant.granted as usize;
        let nodes = if grant.usable_at > now {
            // Machines join the job when the provider reports the launch.
            None
        } else {
            Some(self.job.add_machines(NodeClass::Transient, count)?)
        };
        let holding = Holding {
            nodes,
            count: grant.granted,
            ..Holding::default()
        };
        self.held.insert(grant.id, holding);
        self.exit_degraded(now)
    }

    /// Watchdog: if refusals have kept the loop grantless for a full
    /// window, degrade to the reliable tier instead of spinning, and
    /// provision the configured on-demand fallback so the job keeps
    /// making progress through the drought.
    fn maybe_degrade(&mut self, now: SimTime) -> Result<(), ProteusError> {
        if self.degraded.is_some()
            || self.refusals_since_grant == 0
            || now.since(self.last_grant) < WATCHDOG_WINDOW
        {
            return Ok(());
        }
        self.degraded = Some((now, now + WATCHDOG_WINDOW));
        self.emit(now, Event::Session(SessionEvent::Degraded));
        let count = FALLBACK_ON_DEMAND;
        if self.first_held(|h| h.fallback).is_none() {
            let id = self
                .provider
                .request_on_demand(self.config.on_demand_market, count)?;
            let nodes = self
                .job
                .add_machines(NodeClass::Transient, count as usize)?;
            let fallback = Holding {
                nodes: Some(nodes),
                count,
                fallback: true,
                ..Holding::default()
            };
            self.held.insert(id, fallback);
            let launched = SessionEvent::FallbackLaunched { allocation: id.0 };
            self.emit(now, Event::Session(launched));
        }
        Ok(())
    }

    /// Leaves degraded mode after a successful grant: bank the degraded
    /// interval and release the on-demand fallback (spot is cheaper).
    fn exit_degraded(&mut self, now: SimTime) -> Result<(), ProteusError> {
        let Some((since, _)) = self.degraded.take() else {
            return Ok(());
        };
        let restored = SessionEvent::Restored {
            degraded_ms: now.since(since).as_millis(),
        };
        self.emit(now, Event::Session(restored));
        if let Some(id) = self.first_held(|h| h.fallback) {
            if let Some(nodes) = self.remove_holding(id).and_then(|h| h.nodes) {
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
    /// when no launched, unwarned spot allocation is live: the fallback
    /// is never the victim, and a warned holding's machines already left.
    pub fn inject_failure(&mut self) -> Result<Option<u64>, ProteusError> {
        let Some(id) = self.first_held(|h| !h.fallback && !h.warned && h.nodes.is_some()) else {
            return Ok(None);
        };
        let nodes = self.remove_holding(id).and_then(|h| h.nodes);
        // The provider took the machines, so it settles as an eviction:
        // the current hour is refunded and its usage was free.
        let _ = self.provider.revoke(id);
        let rolled = self.job.fail_nodes(&nodes.unwrap_or_default())?;
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
        let mut victims = self.job.reliable_machines();
        victims.truncate(count);
        if victims.is_empty() {
            return Ok(ReliableRecovery::NoOp);
        }
        let lost = SessionEvent::ReliableLost {
            machines: victims.len() as u64,
        };
        self.emit(self.provider.now(), Event::Session(lost));
        match self.job.fail_nodes(&victims) {
            Ok(_) => Ok(ReliableRecovery::Repaired),
            Err(JobError::Fault(_)) => {
                self.restart_from_checkpoint()?;
                Ok(ReliableRecovery::Restarted)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Chaos injection: the **entire** reliable tier — every live
    /// reliable worker machine and the controller host itself —
    /// vanishes at once. No in-job protocol can survive this (there is
    /// nobody left to run one), so the session restarts from the last
    /// durable checkpoint: tear down, re-acquire reliable capacity,
    /// relaunch.
    /// Returns the clock the restarted job resumed from.
    pub fn inject_total_reliable_failure(&mut self) -> Result<u64, ProteusError> {
        if let Ok(st) = self.job.status() {
            self.last_known_clock = self.last_known_clock.max(st.min_clock);
        }
        let mut doomed = self.job.reliable_machines();
        let lost = SessionEvent::ReliableLost {
            machines: doomed.len() as u64,
        };
        self.emit(self.provider.now(), Event::Session(lost));
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
        let snap = self.checkpoint_store.restore()?;
        let resumed = snap.as_ref().map_or(0, |s| s.clock);
        let lost = self.last_known_clock.saturating_sub(resumed);

        // Every transient holding dies with the old cluster — its
        // machines are nodes of the job being torn down.
        self.terminate_all();
        // No holding survives, so no trajectory may either: a stale one
        // would keep its hazard in `max_hazard` and the checkpoint
        // cadence for the rest of the session.
        self.forecaster = self.config.forecast.map(PreemptionForecaster::new);

        // The reliable hosts are dead too: release the old allocation
        // and provision a fresh tier for the relaunch.
        let _ = self.provider.terminate(self.reliable_alloc);
        self.reliable_alloc = self
            .provider
            .request_on_demand(self.config.on_demand_market, self.config.reliable_machines)?;

        self.job
            .relaunch_from_checkpoint(self.config.reliable_machines as usize, 0, snap)?;
        self.last_known_clock = resumed;
        let restored = SessionEvent::CheckpointRestored {
            clock: resumed,
            work_lost: lost,
        };
        self.emit(now, Event::Session(restored));
        // Spot re-acquisition resumes on the normal decision cadence.
        self.consider_acquisition()?;
        Ok(resumed)
    }

    /// Hour-end renewal decisions: allocations not worth renewing are
    /// released (machines leave gracefully — a voluntary drain).
    fn renewals(&mut self) -> Result<(), ProteusError> {
        for id in self.brain.release_due(&self.provider, &self.tiers()) {
            if let Some(nodes) = self.remove_holding(id).and_then(|h| h.nodes) {
                self.job.evict_with_warning(&nodes)?;
            }
            let _ = self.provider.terminate(id);
        }
        Ok(())
    }

    /// Terminates every holding and empties the table; their current
    /// hours are already paid. Launched holdings go before booting ones,
    /// an order the recorded timeline (and so the golden exports) pins.
    fn terminate_all(&mut self) {
        let mut held: Vec<_> = std::mem::take(&mut self.held).into_iter().collect();
        held.sort_by_key(|(id, h)| (h.nodes.is_none(), *id));
        for (id, _) in held {
            let _ = self.provider.terminate(id);
        }
    }

    /// Finishes the session: terminates holdings, shuts the job down,
    /// and returns the bill and training outcome.
    ///
    /// The on-demand tier is terminated immediately; per Sec. 5, spot
    /// allocations would idle to the end of their billing hours hoping
    /// for a refund — the simulated equivalent simply terminates them,
    /// since their current hours are already paid either way.
    pub fn finish(mut self) -> Result<ProteusReport, ProteusError> {
        let final_objective = self.job.objective(self.job.dataset())?;
        let status = self.job.status()?;
        self.terminate_all();
        let market_time = self.provider.now() - self.job_start;
        self.job.shutdown()?;
        let now = self.provider.now();
        if let Some(rec) = self.obs.as_deref() {
            rec.set_now(now);
        }
        let cost = self.provider.account().total_cost();
        let finished = SessionEvent::Finished {
            cost,
            clocks: status.min_clock,
        };
        // The job is gone, so emit through the tally itself.
        self.tally
            .emit(self.obs.as_deref(), now, Event::Session(finished));
        if let Some(rec) = self.obs.as_deref() {
            if let Some(path) = proteus_obs::export_path() {
                if let Err(e) = std::fs::write(&path, rec.to_jsonl()) {
                    // The report is still valid; only the export failed.
                    eprintln!("warning: could not write {}: {e}", path);
                }
            }
        }
        let market = self.provider.tally();
        Ok(ProteusReport {
            cost,
            market_time,
            usage: *self.provider.account().usage(),
            evictions: market.evictions,
            allocations: market.spot_grants,
            clocks: status.min_clock,
            final_objective,
            refusals: market.capacity_refusals,
            throttles: market.throttled,
            partial_grants: market.partial_grants,
            ..self.tally.report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_bidbrain::ForecastConfig;
    use proteus_market::MarketKey;
    use proteus_mlapps::data::{netflix_like, MfDataConfig};
    use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
    use std::collections::BTreeSet;

    /// The distinct `(market, bid)` pairs of the held holdings the
    /// forecaster tracks.
    fn tracked_pairs(s: &Proteus<MatrixFactorization>) -> BTreeSet<(MarketKey, u64)> {
        let watched = s.forecaster.iter().flat_map(|fc| fc.watched());
        watched
            .filter(|(id, ..)| s.held.contains_key(id))
            .map(|(_, market, bid)| (market, bid.to_bits()))
            .collect()
    }

    /// The table agrees with the provider, and the forecaster keeps no
    /// trajectory for a pair of `seen` that no tracked holding shares:
    /// such a pair reads the hazard of a pair never observed.
    fn assert_table_agrees(s: &Proteus<MatrixFactorization>, seen: &BTreeSet<(MarketKey, u64)>) {
        assert!(s.table_agrees(), "the holding table left the provider");
        let fc = s.forecaster.as_ref().expect("forecasting on");
        for &(market, bid) in seen.difference(&tracked_pairs(s)) {
            assert_eq!(
                fc.hazard(market, f64::from_bits(bid)),
                0.0,
                "the trajectory of a dead holding"
            );
        }
    }

    fn session(config: ProteusConfig) -> Proteus<MatrixFactorization> {
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
        Proteus::launch(app, data, config).expect("launch")
    }

    /// A holding whose warning already drained its machines is leaving
    /// the job anyway: a chaos kill passes it over for the next launched,
    /// unwarned spot holding, and the warned one still settles through
    /// its own `Evicted`.
    #[test]
    fn injected_failure_passes_over_a_warned_holding() {
        let mut session = session(ProteusConfig {
            max_machines: 8,
            market_model: proteus_market::MarketModel::volatile(),
            warning_lead: SimDuration::from_mins(10),
            ..ProteusConfig::default()
        });
        let mut warned = None;
        for _ in 0..2_000 {
            let first = session.held.iter().next();
            if let Some((id, _)) = first.filter(|(_, h)| h.warned) {
                warned = Some(*id);
                break;
            }
            session
                .run_market_hours(DECISION_STEP.as_hours_f64())
                .expect("market step");
        }
        let warned = warned.expect("no smallest-id holding was ever warned");
        let victim = session.held.keys().copied().find(|id| {
            session
                .provider
                .live_spot()
                .find(|a| a.id == *id)
                .is_some_and(|a| !a.is_warned())
        });
        let killed = session.inject_failure().expect("failure path");
        assert_eq!(killed.is_some(), victim.is_some());
        if let Some(victim) = victim {
            assert!(!session.provider.live_spot().any(|a| a.id == victim));
            assert!(!session.held.contains_key(&victim));
        }
        assert!(
            session.provider.live_spot().any(|a| a.id == warned),
            "the kill took a holding its warning had already drained"
        );
        while session.provider.live_spot().any(|a| a.id == warned) {
            session
                .run_market_hours(DECISION_STEP.as_hours_f64())
                .expect("market step");
        }
        assert!(!session.held.contains_key(&warned));
    }

    #[test]
    fn restart_forgets_the_trajectories_of_terminated_holdings() {
        let config = ProteusConfig {
            max_machines: 8,
            forecast: Some(ForecastConfig::default()),
            ..ProteusConfig::default()
        };
        let mut session = session(config);
        for _ in 0..30 {
            if !tracked_pairs(&session).is_empty() {
                break;
            }
            session
                .run_market_hours(DECISION_STEP.as_hours_f64())
                .expect("market step");
        }
        let seen = tracked_pairs(&session);
        assert!(!seen.is_empty(), "no holding was tracked");
        // A price just under each bid gives every trajectory a hazard a
        // forgotten one cannot read.
        let now = session.market_now();
        let fc = session.forecaster.as_mut().expect("forecasting on");
        for &(market, bid) in &seen {
            let bid = f64::from_bits(bid);
            fc.observe(market, bid, now, bid * 0.99);
            assert!(
                fc.hazard(market, bid) > 0.0,
                "a near-bid price reads no hazard"
            );
        }
        assert_table_agrees(&session, &seen);

        session.inject_total_reliable_failure().expect("restart");
        assert_table_agrees(&session, &seen);
        session
            .run_market_hours(DECISION_STEP.as_hours_f64())
            .expect("market step");
        assert_table_agrees(&session, &seen);
    }
}
