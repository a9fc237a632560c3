//! The typed event taxonomy, one enum per subsystem.
//!
//! Payloads are primitives (`u64`, `f64`, `String`) so the JSONL schema
//! is stable and the crate stays a leaf: market keys arrive already
//! rendered through `Display`, allocation ids as raw `u64`. Each event
//! maps to a dotted `kind` string (`"market.spot_granted"`,
//! `"bid.candidate"`, …) used both by timeline queries and the exporter.

use crate::jsonl::{push_f64, push_str, push_u64};

/// A single recorded happening, tagged by originating subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Cloud-provider plane: grants, refusals, evictions, billing.
    Market(MarketEvent),
    /// BidBrain plane: ranked Eq. 4 candidate evaluations.
    Bid(BidEvent),
    /// Training plane: stage transitions, clock progress, recovery.
    Agile(AgileEvent),
    /// Session plane: watchdog degrade/restore, fallback launches.
    Session(SessionEvent),
    /// Cost-study plane: per-scheme cumulative cost/work samples.
    Cost(CostEvent),
    /// Fleet plane: multi-job admission, gang scheduling, preemption.
    Fleet(FleetEvent),
}

/// Provider-side market happenings.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketEvent {
    /// The observed spot price of `market` changed.
    PriceMove {
        /// Market key, rendered via `Display`. Shared, not owned: this
        /// is by far the hottest event (one per price change per job),
        /// so emitters intern the name once and clone the `Arc`.
        market: std::sync::Arc<str>,
        /// New hourly spot price.
        price: f64,
    },
    /// A spot request was granted in full.
    SpotGranted {
        /// Market key, interned (see `MarketKey::interned_name`).
        market: std::sync::Arc<str>,
        /// Allocation id.
        allocation: u64,
        /// Instances granted.
        count: u64,
        /// Standing bid for the allocation.
        bid: f64,
    },
    /// A spot request was granted below the requested count.
    PartialGrant {
        /// Market key, interned (see `MarketKey::interned_name`).
        market: std::sync::Arc<str>,
        /// Instances requested.
        requested: u64,
        /// Instances actually granted.
        granted: u64,
    },
    /// A spot request was refused outright for lack of capacity.
    CapacityRefused {
        /// Market key, interned (see `MarketKey::interned_name`).
        market: std::sync::Arc<str>,
        /// Instances requested.
        requested: u64,
    },
    /// The provider API throttled a request.
    Throttled {
        /// Market key, interned (see `MarketKey::interned_name`).
        market: std::sync::Arc<str>,
        /// Advertised retry delay, in sim millis.
        retry_after_ms: u64,
    },
    /// A bid at or below the current market price was rejected.
    BidRejected {
        /// Market key, interned (see `MarketKey::interned_name`).
        market: std::sync::Arc<str>,
        /// Offered bid.
        bid: f64,
        /// Current market price.
        price: f64,
    },
    /// An on-demand allocation was granted.
    OnDemandGranted {
        /// Allocation id.
        allocation: u64,
        /// Instances granted.
        count: u64,
        /// Fixed hourly price.
        price: f64,
    },
    /// The market price crossed an allocation's bid; eviction is
    /// scheduled after the warning lead.
    EvictionWarning {
        /// Allocation id.
        allocation: u64,
        /// Scheduled eviction time, in sim millis.
        evict_at_ms: u64,
    },
    /// An allocation was reclaimed by the provider.
    Evicted {
        /// Allocation id.
        allocation: u64,
    },
    /// A booting allocation came up and was handed to the tenant.
    Launched {
        /// Allocation id.
        allocation: u64,
    },
    /// A booting allocation died before coming up.
    LaunchFailed {
        /// Allocation id.
        allocation: u64,
    },
    /// A billing line item: one hour (or final partial hour) charged.
    HourCharged {
        /// Allocation id.
        allocation: u64,
        /// Amount charged.
        amount: f64,
    },
    /// The tenant terminated an allocation.
    Terminated {
        /// Allocation id.
        allocation: u64,
    },
}

/// BidBrain decision events — the Eq. 4 trail behind each bid.
#[derive(Debug, Clone, PartialEq)]
pub enum BidEvent {
    /// One acquisition sweep finished.
    Evaluated {
        /// Markets considered.
        markets: u64,
        /// Candidates that beat the hysteresis gate.
        candidates: u64,
        /// Objective score of the current footprint.
        current_score: f64,
    },
    /// The preemption forecaster predicted an imminent eviction for a
    /// held (market, bid) pair, ahead of any provider warning.
    ForecastAlert {
        /// Market key, interned (see `MarketKey::interned_name`).
        market: std::sync::Arc<str>,
        /// The bid the holding is exposed at.
        bid: f64,
        /// Calibrated hazard estimate in `[0, 1]` at fire time.
        hazard: f64,
        /// Expected time until the eviction lands, in sim millis.
        horizon_ms: u64,
    },
    /// A ranked candidate that survived the improvement gate, with the
    /// Eq. 4 terms that produced its score.
    CandidateRanked {
        /// Rank in the sweep (0 = best).
        rank: u64,
        /// Market key, interned (see `MarketKey::interned_name`).
        market: std::sync::Arc<str>,
        /// Instances the request asks for.
        count: u64,
        /// Bid price.
        bid: f64,
        /// Delta above the current price that produced the bid.
        delta: f64,
        /// Objective score of the footprint with this candidate added.
        score: f64,
        /// Eq. 4 numerator: expected cost of the augmented footprint.
        expected_cost: f64,
        /// Eq. 4 denominator: expected work of the augmented footprint.
        expected_work: f64,
    },
}

/// Training-plane events, mirrored from the AgileML job's event channel.
#[derive(Debug, Clone, PartialEq)]
pub enum AgileEvent {
    /// All initially expected nodes are ready and iteration began.
    Started {
        /// Nodes participating at start.
        nodes: u64,
    },
    /// The global minimum clock advanced.
    ClockAdvanced {
        /// The new minimum clock.
        min: u64,
    },
    /// The controller switched elasticity stages.
    StageChanged {
        /// Previous stage, rendered via `Debug`.
        from: String,
        /// New stage.
        to: String,
    },
    /// Nodes were integrated into the computation.
    NodesAdded {
        /// How many.
        count: u64,
    },
    /// Nodes were drained and removed after an eviction warning.
    NodesEvicted {
        /// How many.
        count: u64,
    },
    /// Nodes were proactively demoted on a forecast alert: their served
    /// partitions migrated away while the nodes keep working.
    NodesPreDrained {
        /// How many nodes were demoted.
        count: u64,
        /// How many ActivePS partitions moved.
        partitions: u64,
    },
    /// Part of the reliable tier was lost and repaired in-job by
    /// re-replicating its backup partitions onto surviving reliable
    /// nodes (no restart from checkpoint).
    ReliableRepaired {
        /// How many reliable nodes were lost.
        count: u64,
        /// Backup partitions re-replicated onto survivors.
        partitions: u64,
    },
    /// Nodes failed and rollback recovery ran.
    NodesFailedRecovered {
        /// How many failed.
        count: u64,
        /// The consistent clock the job rolled back to.
        rolled_back_to: u64,
    },
    /// The controller hit an unrecoverable condition.
    Faulted {
        /// The fault, rendered via `Display`.
        fault: String,
    },
}

/// Session state-machine events.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The session launched its reliable tier and training job.
    Launched {
        /// Reliable-tier machines.
        reliable: u64,
    },
    /// The watchdog entered degraded mode (market starvation).
    Degraded,
    /// The session left degraded mode.
    Restored {
        /// Time spent degraded this episode, in sim millis.
        degraded_ms: u64,
    },
    /// Degraded mode provisioned an on-demand fallback machine.
    FallbackLaunched {
        /// Allocation id of the fallback.
        allocation: u64,
    },
    /// A forecast alert triggered a proactive pre-drain of an
    /// allocation's nodes.
    PreDrained {
        /// Allocation id.
        allocation: u64,
    },
    /// A forecast alert expired with no eviction following — the
    /// pre-drain (if any) was a false-positive migration.
    ForecastFalseAlert {
        /// Allocation id.
        allocation: u64,
    },
    /// A provider warning or eviction confirmed an outstanding forecast
    /// alert: the forecaster called this allocation's end in time.
    ForecastHit {
        /// Allocation id.
        allocation: u64,
    },
    /// Reliable-tier machines died; the job repairs in place or the
    /// session restarts from its last checkpoint.
    ReliableLost {
        /// Reliable machines lost.
        machines: u64,
    },
    /// An adaptive checkpoint was taken at the hazard-chosen interval.
    CheckpointTaken {
        /// The interval that scheduled this checkpoint, in sim millis.
        interval_ms: u64,
        /// Encoded snapshot size, in bytes.
        bytes: u64,
        /// The consistent clock the snapshot captures.
        clock: u64,
    },
    /// The session restarted its job from the last durable checkpoint
    /// after an unrepairable reliable-tier loss.
    CheckpointRestored {
        /// The clock the restored snapshot resumes from.
        clock: u64,
        /// Training clocks lost since the restored snapshot.
        work_lost: u64,
    },
    /// The session finished and produced its report.
    Finished {
        /// Total account cost.
        cost: f64,
        /// Training clocks reached.
        clocks: u64,
    },
}

/// Cost-study events — the Fig. 9/10 axes.
#[derive(Debug, Clone, PartialEq)]
pub enum CostEvent {
    /// Delimits the start of one simulated job within a study export.
    RunStart {
        /// Scheme label (e.g. `"Proteus"`).
        scheme: String,
        /// Task index within the study, in result order.
        index: u64,
        /// Job start time, in sim millis.
        start_ms: u64,
    },
    /// A periodic sample of the job's cumulative cost/work and its
    /// footprint by tier.
    Sample {
        /// Cumulative cost so far (credits netted out).
        cum_cost: f64,
        /// Cumulative work so far.
        cum_work: f64,
        /// Spot (transient-tier) instances currently held.
        spot: u64,
        /// Reliable-tier on-demand instances currently held.
        on_demand: u64,
        /// Degraded-mode fallback on-demand instances currently held.
        fallback: u64,
    },
    /// Final accounting for one simulated job.
    RunEnd {
        /// Final cost.
        cost: f64,
        /// Final work.
        work: f64,
        /// Evictions absorbed.
        evictions: u64,
        /// Fallback launches.
        fallback_count: u64,
    },
}

/// Fleet-scheduler events — the multi-tenant control plane.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// A submitted job passed admission control and entered the pending
    /// queue.
    JobAdmitted {
        /// Fleet-assigned job id.
        job: u64,
        /// Priority tier (0 = highest).
        tier: u64,
    },
    /// A job's gang could not acquire this round and (re)joined the
    /// queue.
    GangQueued {
        /// Fleet-assigned job id.
        job: u64,
        /// Gang size (minimum worker set).
        count: u64,
    },
    /// A job's gang acquired atomically and the job started (or
    /// resumed) running.
    GangLaunched {
        /// Fleet-assigned job id.
        job: u64,
        /// Market key, interned (see `MarketKey::interned_name`).
        market: std::sync::Arc<str>,
        /// Instances in the gang.
        count: u64,
        /// Standing bid per instance-hour.
        bid: f64,
        /// Time spent queued before this launch, in sim millis.
        waited_ms: u64,
    },
    /// The sweep driver killed a lagging or out-competed trial early.
    TrialEarlyKilled {
        /// Fleet-assigned job id.
        job: u64,
        /// Work the trial had accrued when killed, in core-hours.
        work_done: f64,
    },
    /// A running low-value trial was preempted to make room for a
    /// higher-value gang; its bill settled like an eviction.
    PreemptedByPriority {
        /// The preempted job.
        job: u64,
        /// The higher-value job whose gang took the capacity.
        by: u64,
    },
}

impl Event {
    /// The dotted kind string identifying this event in queries and in
    /// the JSONL export.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Market(e) => match e {
                MarketEvent::PriceMove { .. } => "market.price_move",
                MarketEvent::SpotGranted { .. } => "market.spot_granted",
                MarketEvent::PartialGrant { .. } => "market.partial_grant",
                MarketEvent::CapacityRefused { .. } => "market.capacity_refused",
                MarketEvent::Throttled { .. } => "market.throttled",
                MarketEvent::BidRejected { .. } => "market.bid_rejected",
                MarketEvent::OnDemandGranted { .. } => "market.on_demand_granted",
                MarketEvent::EvictionWarning { .. } => "market.eviction_warning",
                MarketEvent::Evicted { .. } => "market.evicted",
                MarketEvent::Launched { .. } => "market.launched",
                MarketEvent::LaunchFailed { .. } => "market.launch_failed",
                MarketEvent::HourCharged { .. } => "market.hour_charged",
                MarketEvent::Terminated { .. } => "market.terminated",
            },
            Event::Bid(e) => match e {
                BidEvent::Evaluated { .. } => "bid.evaluated",
                BidEvent::ForecastAlert { .. } => "bid.forecast_alert",
                BidEvent::CandidateRanked { .. } => "bid.candidate",
            },
            Event::Agile(e) => match e {
                AgileEvent::Started { .. } => "agile.started",
                AgileEvent::ClockAdvanced { .. } => "agile.clock_advanced",
                AgileEvent::StageChanged { .. } => "agile.stage_changed",
                AgileEvent::NodesAdded { .. } => "agile.nodes_added",
                AgileEvent::NodesEvicted { .. } => "agile.nodes_evicted",
                AgileEvent::NodesPreDrained { .. } => "agile.pre_drained",
                AgileEvent::ReliableRepaired { .. } => "agile.reliable_repaired",
                AgileEvent::NodesFailedRecovered { .. } => "agile.recovered",
                AgileEvent::Faulted { .. } => "agile.faulted",
            },
            Event::Session(e) => match e {
                SessionEvent::Launched { .. } => "session.launched",
                SessionEvent::Degraded => "session.degraded",
                SessionEvent::Restored { .. } => "session.restored",
                SessionEvent::FallbackLaunched { .. } => "session.fallback_launched",
                SessionEvent::PreDrained { .. } => "session.pre_drain",
                SessionEvent::ForecastFalseAlert { .. } => "session.false_alert",
                SessionEvent::ForecastHit { .. } => "session.forecast_hit",
                SessionEvent::ReliableLost { .. } => "session.reliable_lost",
                SessionEvent::CheckpointTaken { .. } => "session.checkpoint",
                SessionEvent::CheckpointRestored { .. } => "session.checkpoint_restored",
                SessionEvent::Finished { .. } => "session.finished",
            },
            Event::Cost(e) => match e {
                CostEvent::RunStart { .. } => "costsim.run_start",
                CostEvent::Sample { .. } => "costsim.sample",
                CostEvent::RunEnd { .. } => "costsim.run_end",
            },
            Event::Fleet(e) => match e {
                FleetEvent::JobAdmitted { .. } => "fleet.job_admitted",
                FleetEvent::GangQueued { .. } => "fleet.gang_queued",
                FleetEvent::GangLaunched { .. } => "fleet.gang_launched",
                FleetEvent::TrialEarlyKilled { .. } => "fleet.trial_early_killed",
                FleetEvent::PreemptedByPriority { .. } => "fleet.preempted_by_priority",
            },
        }
    }

    /// Appends this event's payload as `,"field":value` JSON pairs.
    pub(crate) fn write_fields(&self, out: &mut String) {
        match self {
            Event::Market(e) => match e {
                MarketEvent::PriceMove { market, price } => {
                    push_str(out, "market", market);
                    push_f64(out, "price", *price);
                }
                MarketEvent::SpotGranted {
                    market,
                    allocation,
                    count,
                    bid,
                } => {
                    push_str(out, "market", market);
                    push_u64(out, "allocation", *allocation);
                    push_u64(out, "count", *count);
                    push_f64(out, "bid", *bid);
                }
                MarketEvent::PartialGrant {
                    market,
                    requested,
                    granted,
                } => {
                    push_str(out, "market", market);
                    push_u64(out, "requested", *requested);
                    push_u64(out, "granted", *granted);
                }
                MarketEvent::CapacityRefused { market, requested } => {
                    push_str(out, "market", market);
                    push_u64(out, "requested", *requested);
                }
                MarketEvent::Throttled {
                    market,
                    retry_after_ms,
                } => {
                    push_str(out, "market", market);
                    push_u64(out, "retry_after_ms", *retry_after_ms);
                }
                MarketEvent::BidRejected { market, bid, price } => {
                    push_str(out, "market", market);
                    push_f64(out, "bid", *bid);
                    push_f64(out, "price", *price);
                }
                MarketEvent::OnDemandGranted {
                    allocation,
                    count,
                    price,
                } => {
                    push_u64(out, "allocation", *allocation);
                    push_u64(out, "count", *count);
                    push_f64(out, "price", *price);
                }
                MarketEvent::EvictionWarning {
                    allocation,
                    evict_at_ms,
                } => {
                    push_u64(out, "allocation", *allocation);
                    push_u64(out, "evict_at_ms", *evict_at_ms);
                }
                MarketEvent::Evicted { allocation }
                | MarketEvent::Launched { allocation }
                | MarketEvent::LaunchFailed { allocation }
                | MarketEvent::Terminated { allocation } => {
                    push_u64(out, "allocation", *allocation);
                }
                MarketEvent::HourCharged { allocation, amount } => {
                    push_u64(out, "allocation", *allocation);
                    push_f64(out, "amount", *amount);
                }
            },
            Event::Bid(e) => match e {
                BidEvent::Evaluated {
                    markets,
                    candidates,
                    current_score,
                } => {
                    push_u64(out, "markets", *markets);
                    push_u64(out, "candidates", *candidates);
                    push_f64(out, "current_score", *current_score);
                }
                BidEvent::ForecastAlert {
                    market,
                    bid,
                    hazard,
                    horizon_ms,
                } => {
                    push_str(out, "market", market);
                    push_f64(out, "bid", *bid);
                    push_f64(out, "hazard", *hazard);
                    push_u64(out, "horizon_ms", *horizon_ms);
                }
                BidEvent::CandidateRanked {
                    rank,
                    market,
                    count,
                    bid,
                    delta,
                    score,
                    expected_cost,
                    expected_work,
                } => {
                    push_u64(out, "rank", *rank);
                    push_str(out, "market", market);
                    push_u64(out, "count", *count);
                    push_f64(out, "bid", *bid);
                    push_f64(out, "delta", *delta);
                    push_f64(out, "score", *score);
                    push_f64(out, "expected_cost", *expected_cost);
                    push_f64(out, "expected_work", *expected_work);
                }
            },
            Event::Agile(e) => match e {
                AgileEvent::Started { nodes } => push_u64(out, "nodes", *nodes),
                AgileEvent::ClockAdvanced { min } => push_u64(out, "min", *min),
                AgileEvent::StageChanged { from, to } => {
                    push_str(out, "from", from);
                    push_str(out, "to", to);
                }
                AgileEvent::NodesAdded { count } | AgileEvent::NodesEvicted { count } => {
                    push_u64(out, "count", *count);
                }
                AgileEvent::NodesPreDrained { count, partitions }
                | AgileEvent::ReliableRepaired { count, partitions } => {
                    push_u64(out, "count", *count);
                    push_u64(out, "partitions", *partitions);
                }
                AgileEvent::NodesFailedRecovered {
                    count,
                    rolled_back_to,
                } => {
                    push_u64(out, "count", *count);
                    push_u64(out, "rolled_back_to", *rolled_back_to);
                }
                AgileEvent::Faulted { fault } => push_str(out, "fault", fault),
            },
            Event::Session(e) => match e {
                SessionEvent::Launched { reliable } => push_u64(out, "reliable", *reliable),
                SessionEvent::Degraded => {}
                SessionEvent::Restored { degraded_ms } => {
                    push_u64(out, "degraded_ms", *degraded_ms);
                }
                SessionEvent::FallbackLaunched { allocation }
                | SessionEvent::PreDrained { allocation }
                | SessionEvent::ForecastFalseAlert { allocation }
                | SessionEvent::ForecastHit { allocation } => {
                    push_u64(out, "allocation", *allocation);
                }
                SessionEvent::ReliableLost { machines } => push_u64(out, "machines", *machines),
                SessionEvent::CheckpointTaken {
                    interval_ms,
                    bytes,
                    clock,
                } => {
                    push_u64(out, "interval_ms", *interval_ms);
                    push_u64(out, "bytes", *bytes);
                    push_u64(out, "clock", *clock);
                }
                SessionEvent::CheckpointRestored { clock, work_lost } => {
                    push_u64(out, "clock", *clock);
                    push_u64(out, "work_lost", *work_lost);
                }
                SessionEvent::Finished { cost, clocks } => {
                    push_f64(out, "cost", *cost);
                    push_u64(out, "clocks", *clocks);
                }
            },
            Event::Cost(e) => match e {
                CostEvent::RunStart {
                    scheme,
                    index,
                    start_ms,
                } => {
                    push_str(out, "scheme", scheme);
                    push_u64(out, "index", *index);
                    push_u64(out, "start_ms", *start_ms);
                }
                CostEvent::Sample {
                    cum_cost,
                    cum_work,
                    spot,
                    on_demand,
                    fallback,
                } => {
                    push_f64(out, "cum_cost", *cum_cost);
                    push_f64(out, "cum_work", *cum_work);
                    push_u64(out, "spot", *spot);
                    push_u64(out, "on_demand", *on_demand);
                    push_u64(out, "fallback", *fallback);
                }
                CostEvent::RunEnd {
                    cost,
                    work,
                    evictions,
                    fallback_count,
                } => {
                    push_f64(out, "cost", *cost);
                    push_f64(out, "work", *work);
                    push_u64(out, "evictions", *evictions);
                    push_u64(out, "fallback_count", *fallback_count);
                }
            },
            Event::Fleet(e) => match e {
                FleetEvent::JobAdmitted { job, tier } => {
                    push_u64(out, "job", *job);
                    push_u64(out, "tier", *tier);
                }
                FleetEvent::GangQueued { job, count } => {
                    push_u64(out, "job", *job);
                    push_u64(out, "count", *count);
                }
                FleetEvent::GangLaunched {
                    job,
                    market,
                    count,
                    bid,
                    waited_ms,
                } => {
                    push_u64(out, "job", *job);
                    push_str(out, "market", market);
                    push_u64(out, "count", *count);
                    push_f64(out, "bid", *bid);
                    push_u64(out, "waited_ms", *waited_ms);
                }
                FleetEvent::TrialEarlyKilled { job, work_done } => {
                    push_u64(out, "job", *job);
                    push_f64(out, "work_done", *work_done);
                }
                FleetEvent::PreemptedByPriority { job, by } => {
                    push_u64(out, "job", *job);
                    push_u64(out, "by", *by);
                }
            },
        }
    }
}
