//! The typed event taxonomy, one enum per subsystem.
//!
//! Payloads are `u64`, `f64`, `String` and `Arc<str>` so the JSONL
//! schema is stable and the crate stays a leaf: market keys arrive
//! already rendered through `Display`, allocation ids as raw `u64`. Each
//! event maps to a dotted `kind` string (`"market.spot_granted"`,
//! `"bid.candidate"`, …) used both by timeline queries and the exporter.
//!
//! The taxonomy is one table, the `events!` invocation below: a
//! subsystem states its group prefix once, a variant its kind suffix
//! once, and a field its name, type and doc once. The JSON key of a field
//! is its name, so a key cannot drift from the field it renders.

use std::sync::Arc;

use crate::jsonl::JsonValue;

/// Emits [`Event`], one sub-enum per group, `Event::kind` and
/// `Event::write_fields` from the table of groups, variants and fields.
macro_rules! events {
    ($(
        $(#[$plane_doc:meta])*
        $Plane:ident($group:literal)
        $(#[$enum_doc:meta])*
        pub enum $Enum:ident {$(
            $(#[$variant_doc:meta])*
            $Variant:ident = $suffix:literal $({$(
                $(#[$field_doc:meta])*
                $field:ident: $ty:ty
            ),* $(,)?})?
        ),* $(,)?}
    )*) => {
        /// A single recorded happening, tagged by originating subsystem.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {$(
            $(#[$plane_doc])*
            $Plane($Enum),
        )*}

        $(
            $(#[$enum_doc])*
            #[derive(Debug, Clone, PartialEq)]
            pub enum $Enum {$(
                $(#[$variant_doc])*
                $Variant $({$($(#[$field_doc])* $field: $ty,)*})?,
            )*}
        )*

        impl Event {
            /// The dotted kind string identifying this event in queries
            /// and in the JSONL export.
            pub fn kind(&self) -> &'static str {
                match self {$($(
                    Event::$Plane($Enum::$Variant { .. }) => concat!($group, ".", $suffix),
                )*)*}
            }

            /// Appends this event's payload as `,"field":value` JSON pairs.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match self {$($(
                    Event::$Plane($Enum::$Variant $({$($field),*})?) => {
                        $($($field.write_field(out, stringify!($field));)*)?
                    }
                )*)*}
            }
        }
    };
}

events! {
    /// Cloud-provider plane: grants, refusals, evictions, billing.
    Market("market")
    /// Provider-side market happenings.
    pub enum MarketEvent {
        /// The observed spot price of `market` changed.
        PriceMove = "price_move" {
            /// Market key, rendered via `Display`. Shared, not owned: this
            /// is by far the hottest event (one per price change per job),
            /// so emitters intern the name once and clone the `Arc`.
            market: Arc<str>,
            /// New hourly spot price.
            price: f64,
        },
        /// A spot request was granted in full.
        SpotGranted = "spot_granted" {
            /// Market key, interned (see `MarketKey::interned_name`).
            market: Arc<str>,
            /// Allocation id.
            allocation: u64,
            /// Instances granted.
            count: u64,
            /// Standing bid for the allocation.
            bid: f64,
        },
        /// A spot request was granted below the requested count.
        PartialGrant = "partial_grant" {
            /// Market key, interned (see `MarketKey::interned_name`).
            market: Arc<str>,
            /// Instances requested.
            requested: u64,
            /// Instances actually granted.
            granted: u64,
        },
        /// A spot request was refused outright for lack of capacity.
        CapacityRefused = "capacity_refused" {
            /// Market key, interned (see `MarketKey::interned_name`).
            market: Arc<str>,
            /// Instances requested.
            requested: u64,
        },
        /// The provider API throttled a request.
        Throttled = "throttled" {
            /// Market key, interned (see `MarketKey::interned_name`).
            market: Arc<str>,
            /// Advertised retry delay, in sim millis.
            retry_after_ms: u64,
        },
        /// A bid at or below the current market price was rejected.
        BidRejected = "bid_rejected" {
            /// Market key, interned (see `MarketKey::interned_name`).
            market: Arc<str>,
            /// Offered bid.
            bid: f64,
            /// Current market price.
            price: f64,
        },
        /// An on-demand allocation was granted.
        OnDemandGranted = "on_demand_granted" {
            /// Allocation id.
            allocation: u64,
            /// Instances granted.
            count: u64,
            /// Fixed hourly price.
            price: f64,
        },
        /// The market price crossed an allocation's bid; eviction is
        /// scheduled after the warning lead.
        EvictionWarning = "eviction_warning" {
            /// Allocation id.
            allocation: u64,
            /// Scheduled eviction time, in sim millis.
            evict_at_ms: u64,
        },
        /// An allocation was reclaimed by the provider.
        Evicted = "evicted" {
            /// Allocation id.
            allocation: u64,
        },
        /// A booting allocation came up and was handed to the tenant.
        Launched = "launched" {
            /// Allocation id.
            allocation: u64,
        },
        /// A booting allocation died before coming up.
        LaunchFailed = "launch_failed" {
            /// Allocation id.
            allocation: u64,
        },
        /// A billing line item: one hour (or final partial hour) charged.
        HourCharged = "hour_charged" {
            /// Allocation id.
            allocation: u64,
            /// Amount charged.
            amount: f64,
        },
        /// The tenant terminated an allocation.
        Terminated = "terminated" {
            /// Allocation id.
            allocation: u64,
        },
    }

    /// BidBrain plane: ranked Eq. 4 candidate evaluations.
    Bid("bid")
    /// BidBrain decision events — the Eq. 4 trail behind each bid.
    pub enum BidEvent {
        /// One acquisition sweep finished.
        Evaluated = "evaluated" {
            /// Markets considered.
            markets: u64,
            /// Candidates that beat the hysteresis gate.
            candidates: u64,
            /// Eq. 4 score (cost per work) of the current footprint.
            current_score: f64,
        },
        /// The preemption forecaster predicted an imminent eviction for a
        /// held (market, bid) pair, ahead of any provider warning.
        ForecastAlert = "forecast_alert" {
            /// Market key, interned (see `MarketKey::interned_name`).
            market: Arc<str>,
            /// The bid the holding is exposed at.
            bid: f64,
            /// Calibrated hazard estimate in `[0, 1]` at fire time.
            hazard: f64,
            /// Expected time until the eviction lands, in sim millis.
            horizon_ms: u64,
        },
        /// A ranked candidate that survived the improvement gate, with the
        /// Eq. 4 terms that produced its score.
        CandidateRanked = "candidate" {
            /// Rank in the sweep (0 = best).
            rank: u64,
            /// Market key, interned (see `MarketKey::interned_name`).
            market: Arc<str>,
            /// Instances the request asks for.
            count: u64,
            /// Bid price.
            bid: f64,
            /// Delta above the current price that produced the bid.
            delta: f64,
            /// Eq. 4 score of the footprint with this candidate added.
            score: f64,
            /// Eq. 4 numerator: expected cost of the augmented footprint.
            expected_cost: f64,
            /// Eq. 4 denominator: expected work of the augmented footprint.
            expected_work: f64,
        },
    }

    /// Training plane: stage transitions, clock progress, recovery.
    Agile("agile")
    /// Training-plane events, mirrored from the AgileML job's event channel.
    pub enum AgileEvent {
        /// All initially expected nodes are ready and iteration began.
        Started = "started" {
            /// Nodes participating at start.
            nodes: u64,
        },
        /// The global minimum clock advanced.
        ClockAdvanced = "clock_advanced" {
            /// The new minimum clock.
            min: u64,
        },
        /// The controller switched elasticity stages.
        StageChanged = "stage_changed" {
            /// Previous stage, rendered via `Debug`.
            from: String,
            /// New stage.
            to: String,
        },
        /// Nodes were integrated into the computation.
        NodesAdded = "nodes_added" {
            /// How many.
            count: u64,
        },
        /// Nodes were drained and removed after an eviction warning.
        NodesEvicted = "nodes_evicted" {
            /// How many.
            count: u64,
        },
        /// Nodes were proactively demoted on a forecast alert: their served
        /// partitions migrated away while the nodes keep working.
        NodesPreDrained = "pre_drained" {
            /// How many nodes were demoted.
            count: u64,
            /// How many ActivePS partitions moved.
            partitions: u64,
        },
        /// Part of the reliable tier was lost and repaired in-job by
        /// re-replicating its backup partitions onto surviving reliable
        /// nodes (no restart from checkpoint).
        ReliableRepaired = "reliable_repaired" {
            /// How many reliable nodes were lost.
            count: u64,
            /// Backup partitions re-replicated onto survivors.
            partitions: u64,
        },
        /// Nodes failed and rollback recovery ran.
        NodesFailedRecovered = "recovered" {
            /// How many failed.
            count: u64,
            /// The consistent clock the job rolled back to.
            rolled_back_to: u64,
        },
        /// The controller hit an unrecoverable condition.
        Faulted = "faulted" {
            /// The fault, rendered via `Display`.
            fault: String,
        },
    }

    /// Session plane: watchdog degrade/restore, fallback launches.
    Session("session")
    /// Session state-machine events.
    pub enum SessionEvent {
        /// The session launched its reliable tier and training job.
        Launched = "launched" {
            /// Reliable-tier machines.
            reliable: u64,
        },
        /// The watchdog entered degraded mode (market starvation).
        Degraded = "degraded",
        /// The session left degraded mode.
        Restored = "restored" {
            /// Time spent degraded this episode, in sim millis.
            degraded_ms: u64,
        },
        /// Degraded mode provisioned an on-demand fallback machine.
        FallbackLaunched = "fallback_launched" {
            /// Allocation id of the fallback.
            allocation: u64,
        },
        /// A forecast alert triggered a proactive pre-drain of an
        /// allocation's nodes.
        PreDrained = "pre_drain" {
            /// Allocation id.
            allocation: u64,
        },
        /// A forecast alert expired with no eviction following — the
        /// pre-drain (if any) was a false-positive migration.
        ForecastFalseAlert = "false_alert" {
            /// Allocation id.
            allocation: u64,
        },
        /// A provider warning or eviction confirmed an outstanding forecast
        /// alert: the forecaster called this allocation's end in time.
        ForecastHit = "forecast_hit" {
            /// Allocation id.
            allocation: u64,
        },
        /// Reliable-tier machines died; the job repairs in place or the
        /// session restarts from its last checkpoint.
        ReliableLost = "reliable_lost" {
            /// Reliable machines lost.
            machines: u64,
        },
        /// An adaptive checkpoint was taken at the hazard-chosen interval.
        CheckpointTaken = "checkpoint" {
            /// The interval that scheduled this checkpoint, in sim millis.
            interval_ms: u64,
            /// Encoded snapshot size, in bytes.
            bytes: u64,
            /// The consistent clock the snapshot captures.
            clock: u64,
        },
        /// The session restarted its job from the last durable checkpoint
        /// after an unrepairable reliable-tier loss.
        CheckpointRestored = "checkpoint_restored" {
            /// The clock the restored snapshot resumes from.
            clock: u64,
            /// Training clocks lost since the restored snapshot.
            work_lost: u64,
        },
        /// The session finished and produced its report.
        Finished = "finished" {
            /// Total account cost.
            cost: f64,
            /// Training clocks reached.
            clocks: u64,
        },
    }

    /// Cost-study plane: per-scheme cumulative cost/work samples.
    Cost("costsim")
    /// Cost-study events — the Fig. 9/10 axes.
    pub enum CostEvent {
        /// Delimits the start of one simulated job within a study export.
        RunStart = "run_start" {
            /// Scheme label (e.g. `"Proteus"`).
            scheme: String,
            /// Task index within the study, in result order.
            index: u64,
            /// Job start time, in sim millis.
            start_ms: u64,
        },
        /// A periodic sample of the job's cumulative cost/work and its
        /// footprint by tier.
        Sample = "sample" {
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
        RunEnd = "run_end" {
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

    /// Fleet plane: multi-job admission, gang scheduling, preemption.
    Fleet("fleet")
    /// Fleet-scheduler events — the multi-tenant control plane.
    pub enum FleetEvent {
        /// A submitted job passed admission control and entered the pending
        /// queue.
        JobAdmitted = "job_admitted" {
            /// Fleet-assigned job id.
            job: u64,
            /// Priority tier (0 = highest).
            tier: u64,
        },
        /// A job's gang could not acquire this round and (re)joined the
        /// queue.
        GangQueued = "gang_queued" {
            /// Fleet-assigned job id.
            job: u64,
            /// Gang size (minimum worker set).
            count: u64,
        },
        /// A job's gang acquired atomically and the job started (or
        /// resumed) running.
        GangLaunched = "gang_launched" {
            /// Fleet-assigned job id.
            job: u64,
            /// Market key, interned (see `MarketKey::interned_name`).
            market: Arc<str>,
            /// Instances in the gang.
            count: u64,
            /// Standing bid per instance-hour.
            bid: f64,
            /// Time spent queued before this launch, in sim millis.
            waited_ms: u64,
        },
        /// The sweep driver killed a lagging or out-competed trial early.
        TrialEarlyKilled = "trial_early_killed" {
            /// Fleet-assigned job id.
            job: u64,
            /// Work the trial had accrued when killed, in core-hours.
            work_done: f64,
        },
        /// A running low-value trial was preempted to make room for a
        /// higher-value gang; its bill settled like an eviction.
        PreemptedByPriority = "preempted_by_priority" {
            /// The preempted job.
            job: u64,
            /// The higher-value job whose gang took the capacity.
            by: u64,
        },
    }
}
