//! The simulated cloud provider: grants, bills, warns, and evicts.
//!
//! [`CloudProvider`] is the single authority the rest of the workspace
//! talks to. It replays a [`TraceSet`] of spot prices, grants spot and
//! on-demand allocations, charges a [`BillingAccount`] at hourly
//! granularity, and — when a market price crosses above an allocation's
//! bid — issues a two-minute [`ProviderEvent::EvictionWarning`] followed by
//! [`ProviderEvent::Evicted`] with the current hour refunded (a
//! preemptible market's lease instead meets the fate drawn at its grant).
//!
//! Time is advanced explicitly with [`CloudProvider::advance_to`], which
//! returns every event that fired in order; the caller (BidBrain's driver
//! or the cost simulator) decides how to react.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use proteus_obs::{Event, MarketEvent, Recorder, Unshared};
use proteus_simtime::{SimDuration, SimTime};

use crate::billing::{BillingAccount, LedgerEntry, LedgerKind};
use crate::error::MarketError;
use crate::fault::{FaultState, MarketFaultPlan, TenantId};
use crate::instance::MarketKey;
use crate::spot::{billing_hour_end, SpotAllocation, SpotState};
use crate::tally::{Happened, MarketTally};
use crate::trace::{PriceCursor, TraceSet};

/// Identifies one allocation (spot or on-demand).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocationId(pub u64);

impl fmt::Display for AllocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alloc-{}", self.0)
    }
}

/// The provider's own record of a spot allocation: the tenant-visible
/// view plus its fate, which a tenant must never see.
#[derive(Debug, Clone)]
struct SpotLease {
    alloc: SpotAllocation,
    /// Its market's slot in the trace set (and the price cursor),
    /// resolved at grant.
    slot: usize,
    /// A drawn instant, and what happens then, if a draw ends the lease.
    fate: Option<(SimTime, Fate)>,
}

/// What a lease's fate does at its instant: a warning-less death (the
/// infant-mortality regime), or a preemptible market's warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Dies,
    Preempted { evict_at: SimTime },
}

/// What a successful [`CloudProvider::request_spot`] granted.
///
/// Under fault regimes a grant can be **partial** (`granted <
/// requested`, a capacity cap bound) or **delayed** (`usable_at` after
/// the request time; billing starts at launch). With no fault plan
/// installed every grant is full and immediate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotGrant {
    /// The allocation created.
    pub id: AllocationId,
    /// Instances asked for.
    pub requested: u32,
    /// Instances actually granted.
    pub granted: u32,
    /// When the instances become usable (the request time unless a
    /// boot-delay regime deferred the launch).
    pub usable_at: SimTime,
}

/// An on-demand allocation (never evicted by the provider).
#[derive(Debug, Clone, PartialEq)]
struct OnDemandLease {
    id: AllocationId,
    market: MarketKey,
    count: u32,
    granted_at: SimTime,
    hour_start: SimTime,
}

/// Events produced while advancing simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderEvent {
    /// The market price crossed above the bid; the allocation terminates at
    /// `evict_at` (warning lead time later).
    EvictionWarning {
        /// Affected allocation.
        allocation: AllocationId,
        /// When the instances will disappear.
        evict_at: SimTime,
    },
    /// The allocation's instances were revoked and the current billing
    /// hour refunded.
    Evicted {
        /// Affected allocation.
        allocation: AllocationId,
    },
    /// A boot-delayed allocation's instances came up; billing starts
    /// now (only emitted under a boot-delay fault regime).
    Launched {
        /// Affected allocation.
        allocation: AllocationId,
    },
    /// The market price crossed above the bid while the instances were
    /// still booting: the launch is aborted and nothing was billed
    /// (only emitted under a boot-delay fault regime).
    LaunchFailed {
        /// Affected allocation.
        allocation: AllocationId,
    },
}

/// The simulated provider.
///
/// The trace set is held as a [`Cow`](std::borrow::Cow): pass a
/// `&TraceSet` to share one price history across many providers (the
/// cost-study engine runs thousands of simulations against a single
/// generated history) or an owned `TraceSet` for a self-contained
/// provider.
///
/// A clone is a fork: the same instant, prices, leases, ledger, tally
/// and fault draw streams, so it goes on exactly as the original would,
/// with no recorder.
#[derive(Clone)]
pub struct CloudProvider<'a> {
    traces: std::borrow::Cow<'a, TraceSet>,
    now: SimTime,
    /// Every market's price at `now`; moves whenever `now` does.
    cursor: PriceCursor,
    next_id: u64,
    spot: BTreeMap<AllocationId, SpotLease>,
    on_demand: BTreeMap<AllocationId, OnDemandLease>,
    account: BillingAccount,
    warning_lead: SimDuration,
    /// Installed fault regimes; `None` (the default) means a pristine
    /// market: every request granted in full, immediately, forever.
    faults: Option<FaultState>,
    /// What the provider has emitted, folded.
    tally: MarketTally,
    /// Observability sink; `None` (the default) records nothing and
    /// costs one branch per decision point. Recording is passive — it
    /// never changes a grant, a draw, or a bill.
    obs: Unshared,
}

impl<'a> CloudProvider<'a> {
    /// Creates a provider over the given price traces (owned or
    /// borrowed), using the EC2 two-minute eviction warning.
    pub fn new(traces: impl Into<std::borrow::Cow<'a, TraceSet>>) -> Self {
        Self::with_warning_lead(traces, crate::EC2_EVICTION_WARNING)
    }

    /// Creates a provider with a custom lead from a price crossing to
    /// its eviction (zero models warning-less revocation). A preemptible
    /// market keeps its own thirty seconds, whatever this lead.
    pub fn with_warning_lead(
        traces: impl Into<std::borrow::Cow<'a, TraceSet>>,
        warning_lead: SimDuration,
    ) -> Self {
        let traces = traces.into();
        CloudProvider {
            cursor: PriceCursor::new(&traces),
            traces,
            now: SimTime::EPOCH,
            next_id: 0,
            spot: BTreeMap::new(),
            on_demand: BTreeMap::new(),
            account: BillingAccount::new(),
            warning_lead,
            faults: None,
            tally: MarketTally::default(),
            obs: Unshared::default(),
        }
    }

    /// Attaches an observability recorder: every market event (grants,
    /// refusals, evictions, billing line items) is mirrored onto its
    /// timeline.
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        self.obs = Unshared(Some(rec));
    }

    /// Emits one happening at `t`: always applied to the tally, then
    /// mirrored to the recorder if one is attached.
    fn emit(&mut self, t: SimTime, h: Happened) {
        self.tally.apply(&h);
        if let Some(rec) = self.obs.0.as_deref() {
            rec.record(t, Event::Market(h.to_obs()));
        }
    }

    /// Emits a happening [`advance_to`](Self::advance_to) also returns.
    fn emit_step(&mut self, t: SimTime, h: Happened, events: &mut Vec<(SimTime, ProviderEvent)>) {
        events.extend(h.step_event().map(|ev| (t, ev)));
        self.emit(t, h);
    }

    /// What the provider has done so far, folded from its emissions.
    pub fn tally(&self) -> &MarketTally {
        &self.tally
    }

    /// Installs a fault plan (capacity caps, throttling, boot delay,
    /// infant mortality). Replaces any existing plan and resets its
    /// draw stream.
    pub fn set_fault_plan(&mut self, plan: MarketFaultPlan) {
        self.faults = Some(FaultState::new(plan));
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&MarketFaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The spot price of `market` at the current time.
    pub fn spot_price(&self, market: MarketKey) -> Result<f64, MarketError> {
        self.market_slot(market)
            .map(|slot| self.cursor.prices()[slot].1)
    }

    /// `market`'s slot: its position in [`spot_prices`](Self::spot_prices).
    fn market_slot(&self, market: MarketKey) -> Result<usize, MarketError> {
        self.traces
            .slot(&market)
            .map_err(|_| MarketError::UnknownMarket(market))
    }

    /// Every registered market's spot price at the current time, in
    /// market order.
    pub fn spot_prices(&self) -> &[(MarketKey, f64)] {
        self.cursor.prices()
    }

    /// The billing account.
    pub fn account(&self) -> &BillingAccount {
        &self.account
    }

    /// Every live spot allocation, in id order, borrowed: a decision
    /// step that only scans or sums its holdings copies nothing.
    pub fn live_spot(&self) -> impl Iterator<Item = &SpotAllocation> + '_ {
        self.spot.values().map(|l| &l.alloc)
    }

    /// [`live_spot`](Self::live_spot), each allocation with its market's
    /// slot: its position in [`spot_prices`](Self::spot_prices), so a
    /// caller reads its price now with no market lookup.
    pub fn live_spot_slots(&self) -> impl Iterator<Item = (&SpotAllocation, usize)> + '_ {
        self.spot.values().map(|l| (&l.alloc, l.slot))
    }

    /// Dollars of `id`'s current billing hour paid for but not yet used
    /// at `now` — the paper's accounting does not charge a job for the
    /// unused rest of its final hours. A spot allocation credits its
    /// hour's charge pro rata to the hour end (zero while booting:
    /// nothing was charged); an on-demand one credits its price for the
    /// fraction of the hour not yet elapsed (a full hour at its grant
    /// instant). Zero for an unknown allocation.
    pub fn unused_hour_credit(&self, id: AllocationId) -> f64 {
        if let Some(l) = self.spot.get(&id) {
            return l.alloc.hour_charge() * l.alloc.time_to_hour_end(self.now).as_hours_f64();
        }
        self.on_demand.get(&id).map_or(0.0, |l| {
            let into_hour = self.now.since(l.hour_start).as_hours_f64();
            l.market.instance_type().on_demand_price * f64::from(l.count) * (1.0 - into_hour)
        })
    }

    /// Total instances currently live across spot and on-demand.
    pub fn live_instance_count(&self) -> u32 {
        let spot: u32 = self.live_spot().map(|a| a.count).sum();
        let od: u32 = self.on_demand.values().map(|l| l.count).sum();
        spot + od
    }

    /// Places a spot bid: `count` instances in `market` at `bid` dollars
    /// per instance-hour.
    ///
    /// Grants immediately if the bid is at or above the current market
    /// price; the first billing hour is charged at the market price.
    /// Under an installed [`MarketFaultPlan`] the request may instead
    /// be throttled ([`MarketError::RequestLimitExceeded`]), refused
    /// ([`MarketError::InsufficientCapacity`]), granted partially, or
    /// granted with a delayed launch (billing then starts at
    /// [`SpotGrant::usable_at`], and the grant may be fated to die
    /// young) — see [`SpotGrant`].
    pub fn request_spot(
        &mut self,
        market: MarketKey,
        count: u32,
        bid: f64,
    ) -> Result<SpotGrant, MarketError> {
        self.request_spot_inner(TenantId::DEFAULT, market, count, bid, false)
    }

    /// All-or-nothing spot request on behalf of a tenant: either every
    /// one of the `count` instances is granted as a single allocation,
    /// or the request is refused and **nothing is billed**. Capacity
    /// shortfalls that would partially grant a plain request instead
    /// return [`MarketError::InsufficientCapacity`] carrying the
    /// available headroom. This is the gang-scheduling primitive: a
    /// job's minimum worker set launches atomically or not at all, so a
    /// half-launched gang can never bleed money. Fault draws (throttle,
    /// boot delay, infant mortality) come from the tenant's own
    /// seed-split stream, so one tenant's request pattern never perturbs
    /// another's fate.
    pub fn request_spot_gang(
        &mut self,
        tenant: TenantId,
        market: MarketKey,
        count: u32,
        bid: f64,
    ) -> Result<SpotGrant, MarketError> {
        self.request_spot_inner(tenant, market, count, bid, true)
    }

    fn request_spot_inner(
        &mut self,
        tenant: TenantId,
        market: MarketKey,
        count: u32,
        bid: f64,
        atomic: bool,
    ) -> Result<SpotGrant, MarketError> {
        if count == 0 {
            return Err(MarketError::EmptyRequest);
        }
        // The API gate sits in front of the market itself.
        let throttled = self
            .faults
            .as_mut()
            .and_then(|fs| fs.draw_throttle(tenant, self.now));
        if let Some(retry_after) = throttled {
            self.emit(
                self.now,
                Happened::Throttled {
                    market,
                    retry_after,
                },
            );
            return Err(MarketError::RequestLimitExceeded { retry_after });
        }
        let slot = self.market_slot(market)?;
        let price = self.cursor.prices()[slot].1;
        if bid < price {
            self.emit(self.now, Happened::BidRejected { market, bid, price });
            return Err(MarketError::BidBelowMarket {
                market,
                bid,
                market_price: price,
            });
        }
        let mut granted = count;
        let cap = self
            .faults
            .as_ref()
            .and_then(|fs| fs.plan.capacity_limit(market, self.now));
        if let Some(cap) = cap {
            let live: u32 = self
                .live_spot()
                .filter(|a| a.market == market)
                .map(|a| a.count)
                .sum();
            let available = cap.saturating_sub(live);
            if available == 0 || (atomic && available < count) {
                // An atomic (gang) request refuses rather than accept a
                // partial grant; nothing has been billed yet.
                self.emit(
                    self.now,
                    Happened::CapacityRefused {
                        market,
                        requested: count,
                    },
                );
                return Err(MarketError::InsufficientCapacity {
                    market,
                    requested: count,
                    available,
                });
            }
            if available < count {
                self.emit(
                    self.now,
                    Happened::PartialGrant {
                        market,
                        requested: count,
                        granted: available,
                    },
                );
                granted = available;
            }
        }
        let (usable_at, dies_at) = match self.faults.as_mut() {
            None => (self.now, None),
            Some(fs) => {
                let usable_at = self.now + fs.draw_boot_delay(tenant);
                (usable_at, fs.draw_infant_death(tenant, usable_at))
            }
        };
        let id = self.fresh_id();
        // A preemptible lease's revocation is drawn now, from its launch;
        // the earlier of it and an infant death is the lease's fate.
        let preempted = self.traces.preemption(slot).map(|model| {
            let [warn_at, evict_at] = model.fate(id, self.now, usable_at);
            (warn_at, Fate::Preempted { evict_at })
        });
        let dies = dies_at.map(|at| (at, Fate::Dies));
        let fate = dies.into_iter().chain(preempted).min_by_key(|&(at, _)| at);
        // A delayed launch bills nothing until the instances come up;
        // the Launch happening charges the first hour at the price then.
        let booting = usable_at > self.now;
        if !booting {
            self.account.record(LedgerEntry {
                time: self.now,
                allocation: id,
                kind: LedgerKind::SpotHour,
                amount: price * f64::from(granted),
                instances: granted,
            });
        }
        let alloc = SpotAllocation {
            id,
            market,
            count: granted,
            bid,
            granted_at: self.now,
            usable_at,
            hour_start: self.now,
            hour_price: if booting { 0.0 } else { price },
            state: if booting {
                SpotState::Booting
            } else {
                SpotState::Running
            },
        };
        let lease = SpotLease { alloc, slot, fate };
        self.spot.insert(id, lease);
        self.emit(
            self.now,
            Happened::SpotGranted {
                market,
                allocation: id,
                count: granted,
                bid,
            },
        );
        Ok(SpotGrant {
            id,
            requested: count,
            granted,
            usable_at,
        })
    }

    /// Provisions `count` on-demand instances in `market` (charged the
    /// fixed on-demand price each hour; never evicted by the provider).
    pub fn request_on_demand(
        &mut self,
        market: MarketKey,
        count: u32,
    ) -> Result<AllocationId, MarketError> {
        if count == 0 {
            return Err(MarketError::EmptyRequest);
        }
        let id = self.fresh_id();
        let price = market.instance_type().on_demand_price;
        self.account.record(LedgerEntry {
            time: self.now,
            allocation: id,
            kind: LedgerKind::OnDemandHour,
            amount: price * f64::from(count),
            instances: count,
        });
        self.on_demand.insert(
            id,
            OnDemandLease {
                id,
                market,
                count,
                granted_at: self.now,
                hour_start: self.now,
            },
        );
        self.emit(
            self.now,
            Happened::OnDemandGranted {
                allocation: id,
                count,
                price,
            },
        );
        Ok(id)
    }

    /// Voluntarily terminates an allocation (spot or on-demand).
    ///
    /// The current billing hour has already been paid and is forfeited;
    /// usage up to `now` is recorded as paid.
    pub fn terminate(&mut self, id: AllocationId) -> Result<(), MarketError> {
        if let Some(SpotLease { alloc: a, .. }) = self.spot.remove(&id) {
            // Cancelling a boot is free: nothing was billed and no
            // compute happened. Otherwise usage up to now was paid for.
            if !a.is_booting() {
                let used = self.now.since(a.hour_start).as_hours_f64();
                self.account.add_spot_usage(used * f64::from(a.count));
            }
            self.emit(self.now, Happened::Terminated(id));
            return Ok(());
        }
        if let Some(lease) = self.on_demand.remove(&id) {
            let used = self.now.since(lease.hour_start).as_hours_f64();
            self.account
                .add_on_demand_usage(used * f64::from(lease.count));
            self.emit(self.now, Happened::Terminated(id));
            return Ok(());
        }
        Err(MarketError::UnknownAllocation(id))
    }

    /// Revokes a spot allocation with eviction settlement: the current
    /// billing hour is refunded and usage up to `now` was free.
    ///
    /// This is the scheduler-preemption primitive. Where
    /// [`terminate`](Self::terminate) models a tenant walking away (the
    /// paid hour is forfeited), `revoke` models the platform reclaiming
    /// the instances — the tenant is made whole exactly as if the
    /// provider had evicted them, so billing-conservation properties
    /// hold identically for market evictions and fleet preemptions.
    /// Revoking a still-booting allocation is free (nothing was billed).
    pub fn revoke(&mut self, id: AllocationId) -> Result<(), MarketError> {
        let Some(lease) = self.spot.remove(&id) else {
            return Err(MarketError::UnknownAllocation(id));
        };
        // A booting allocation billed nothing and computed nothing: a
        // free cancel.
        if !lease.alloc.is_booting() {
            self.settle_eviction(self.now, &lease);
        }
        self.emit(
            self.now,
            Happened::Evicted {
                allocation: id,
                infant: false,
            },
        );
        Ok(())
    }

    /// Eviction settlement of a removed, launched lease at `t`: the
    /// current billing hour is refunded and its usage was free. A
    /// preemptible market refunds nothing: the usage was paid.
    fn settle_eviction(&mut self, t: SimTime, lease: &SpotLease) {
        let a = &lease.alloc;
        let used = t.since(a.hour_start).as_hours_f64() * f64::from(a.count);
        if self.traces.preemption(lease.slot).is_some() {
            self.account.add_spot_usage(used);
            return;
        }
        self.account.record(LedgerEntry {
            time: t,
            allocation: a.id,
            kind: LedgerKind::EvictionRefund,
            amount: -a.hour_charge(),
            instances: a.count,
        });
        self.account.add_free_usage(used);
    }

    /// Records an hour charged at `t`: trail no tally or loop reads (the
    /// ledger holds the charge), so it is built only for a recorder.
    fn hour_charged(&self, t: SimTime, allocation: AllocationId, amount: f64) {
        if let Some(rec) = self.obs.0.as_deref() {
            let charged = MarketEvent::HourCharged {
                allocation: allocation.0,
                amount,
            };
            rec.record(t, Event::Market(charged));
        }
    }

    /// Opens a billing hour now for spot allocation `id`: anchors it,
    /// prices it at the market price now, and charges it. Returns the
    /// charge.
    // Every caller holds the id of a live lease.
    #[allow(clippy::expect_used)]
    fn open_spot_hour(&mut self, id: AllocationId) -> f64 {
        let t = self.now;
        let lease = self.spot.get_mut(&id).expect("lease exists");
        let price = self.cursor.prices()[lease.slot].1;
        let a = &mut lease.alloc;
        a.hour_start = t;
        a.hour_price = price;
        let charge = a.hour_charge();
        self.account.record(LedgerEntry {
            time: t,
            allocation: id,
            kind: LedgerKind::SpotHour,
            amount: charge,
            instances: a.count,
        });
        charge
    }

    /// Advances simulated time to `target`, processing hour boundaries,
    /// bid crossings, warnings, and evictions in order.
    ///
    /// Returns every event that fired, tagged with its fire time, in
    /// non-decreasing time order.
    pub fn advance_to(
        &mut self,
        target: SimTime,
    ) -> Result<Vec<(SimTime, ProviderEvent)>, MarketError> {
        if target < self.now {
            return Err(MarketError::TimeWentBackwards);
        }
        let mut events = Vec::new();
        // Process one earliest pending happening at a time until nothing
        // fires at or before `target`.
        loop {
            let next = self.next_happening(target);
            match next {
                Some((t, h)) => {
                    self.set_now(t);
                    self.apply_happening(t, h, &mut events);
                }
                None => break,
            }
        }
        self.set_now(target);
        Ok(events)
    }

    /// Moves the clock, and every market's price with it.
    fn set_now(&mut self, t: SimTime) {
        self.now = t;
        self.cursor.advance(&self.traces, t);
    }

    /// The first instant in `(now, horizon]` at which `lease`'s market
    /// price exceeds its bid (`now` if it already does).
    fn first_crossing_above(&self, lease: &SpotLease, horizon: SimTime) -> Option<SimTime> {
        self.cursor
            .first_crossing_above(&self.traces, lease.slot, lease.alloc.bid, horizon)
    }

    fn fresh_id(&mut self) -> AllocationId {
        let id = AllocationId(self.next_id);
        self.next_id += 1;
        id
    }

    /// The earliest internal happening at or before `target`, if any.
    fn next_happening(&self, target: SimTime) -> Option<(SimTime, Happening)> {
        let mut best: Option<(SimTime, Happening)> = None;
        let mut consider = |t: SimTime, h: Happening| {
            if t > target {
                return;
            }
            match &best {
                Some((bt, _)) if *bt <= t => {}
                _ => best = Some((t, h)),
            }
        };

        for lease in self.spot.values() {
            let a = &lease.alloc;
            // Scheduled eviction (if warned).
            if let Some(evict_at) = a.evict_at() {
                consider(evict_at, Happening::Evict(a.id));
                // A warned lease no longer bills new hours or crosses.
                continue;
            }
            if a.is_booting() {
                // Launch is considered before a same-instant crossing
                // (`consider` keeps the first happening at equal times):
                // the instances come up, then the crossing warns them.
                consider(a.usable_at, Happening::Launch(a.id));
                // A crossing during boot aborts the launch (unbilled).
                let horizon = target.min(a.usable_at);
                if let Some(ct) = self.first_crossing_above(lease, horizon) {
                    consider(ct, Happening::Crossing(a.id));
                }
                continue;
            }
            // Scheduled death or preemption warning, considered before a
            // same-instant hour boundary so a dying or warned lease never
            // opens a fresh billing hour first.
            if let Some((at, fate)) = lease.fate {
                consider(at, Happening::Fate(a.id, fate));
            }
            // Next hour boundary.
            consider(a.hour_end(), Happening::SpotHour(a.id));
            // Next bid crossing. Search from `now` up to the earlier of
            // the target and the hour end (crossings after the hour end
            // are found after the hour boundary is processed).
            let horizon = target.min(a.hour_end());
            if let Some(ct) = self.first_crossing_above(lease, horizon) {
                consider(ct, Happening::Crossing(a.id));
            }
        }
        for lease in self.on_demand.values() {
            consider(
                billing_hour_end(lease.hour_start),
                Happening::OnDemandHour(lease.id),
            );
        }
        best
    }

    // Invariant: every `Happening` carries the id of a lease that was
    // live when `next_happening` built it, and nothing removes leases
    // between building and applying — the lookups cannot fail.
    #[allow(clippy::expect_used)]
    fn apply_happening(
        &mut self,
        t: SimTime,
        h: Happening,
        events: &mut Vec<(SimTime, ProviderEvent)>,
    ) {
        match h {
            Happening::SpotHour(id) => {
                // The completed hour was fully used and paid.
                let count = self.spot.get(&id).expect("lease exists").alloc.count;
                self.account.add_spot_usage(f64::from(count));
                let charge = self.open_spot_hour(id);
                self.hour_charged(t, id, charge);
            }
            Happening::OnDemandHour(id) => {
                let lease = self.on_demand.get_mut(&id).expect("lease exists");
                self.account.add_on_demand_usage(f64::from(lease.count));
                lease.hour_start = t;
                let price = lease.market.instance_type().on_demand_price;
                let charge = price * f64::from(lease.count);
                let count = lease.count;
                self.account.record(LedgerEntry {
                    time: t,
                    allocation: id,
                    kind: LedgerKind::OnDemandHour,
                    amount: charge,
                    instances: count,
                });
                self.hour_charged(t, id, charge);
            }
            Happening::Launch(id) => {
                self.spot.get_mut(&id).expect("lease exists").alloc.state = SpotState::Running;
                // Billing hours re-anchor at the actual launch. Like the
                // immediate-grant charge, the first hour is not recorded
                // as `market.hour_charged`; Launched marks it.
                self.open_spot_hour(id);
                self.emit_step(t, Happened::Launched(id), events);
            }
            Happening::Crossing(id) => {
                let a = &mut self.spot.get_mut(&id).expect("lease exists").alloc;
                if a.is_booting() {
                    // The market moved above the bid before the instances
                    // came up: the launch silently fails. Nothing was
                    // billed, nothing computed.
                    self.spot.remove(&id);
                    self.emit_step(t, Happened::LaunchFailed(id), events);
                    return;
                }
                let evict_at = t + self.warning_lead;
                a.state = SpotState::WarningIssued { evict_at };
                let warning = Happened::EvictionWarning {
                    allocation: id,
                    evict_at,
                };
                self.emit_step(t, warning, events);
            }
            Happening::Fate(id, Fate::Dies) => {
                // A warning-less death settles exactly like an eviction.
                let lease = self.spot.remove(&id).expect("lease exists");
                self.settle_eviction(t, &lease);
                let death = Happened::Evicted {
                    allocation: id,
                    infant: true,
                };
                self.emit_step(t, death, events);
            }
            Happening::Fate(id, Fate::Preempted { evict_at }) => {
                let a = &mut self.spot.get_mut(&id).expect("lease exists").alloc;
                a.state = SpotState::WarningIssued { evict_at };
                let warning = Happened::EvictionWarning {
                    allocation: id,
                    evict_at,
                };
                self.emit_step(t, warning, events);
            }
            Happening::Evict(id) => {
                let lease = self.spot.remove(&id).expect("lease exists");
                self.settle_eviction(t, &lease);
                let eviction = Happened::Evicted {
                    allocation: id,
                    infant: false,
                };
                self.emit_step(t, eviction, events);
            }
        }
    }
}

/// Internal happenings the provider steps through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Happening {
    /// A spot allocation reached a billing-hour boundary.
    SpotHour(AllocationId),
    /// An on-demand allocation reached a billing-hour boundary.
    OnDemandHour(AllocationId),
    /// A market price crossed above a lease's bid.
    Crossing(AllocationId),
    /// A warned lease reached its termination instant.
    Evict(AllocationId),
    /// A boot-delayed lease's instances came up (billing starts).
    Launch(AllocationId),
    /// A lease reached its fate: a warning-less death, or a preemptible
    /// market's warning.
    Fate(AllocationId, Fate),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{catalog, Zone};
    use crate::trace::PriceTrace;

    fn key() -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(0))
    }

    fn provider_with(points: Vec<(SimTime, f64)>) -> CloudProvider<'static> {
        let mut set = TraceSet::new();
        set.insert(key(), PriceTrace::from_points(points).expect("trace"));
        CloudProvider::new(set)
    }

    #[test]
    fn grant_charges_first_hour_at_market_price() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        let grant = p.request_spot(key(), 4, 0.10).expect("granted");
        assert_eq!(grant.granted, 4);
        assert_eq!(grant.granted, grant.requested);
        assert_eq!(grant.usable_at, SimTime::EPOCH);
        let id = grant.id;
        assert!((p.account().total_cost() - 0.20).abs() < 1e-12);
        assert_eq!(p.live_spot().find(|a| a.id == id).unwrap().count, 4);
    }

    #[test]
    fn bid_below_market_is_rejected() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.50)]);
        let err = p.request_spot(key(), 1, 0.10).unwrap_err();
        assert!(matches!(err, MarketError::BidBelowMarket { .. }));
        assert_eq!(p.account().total_cost(), 0.0);
    }

    #[test]
    fn zero_count_requests_rejected() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        assert_eq!(
            p.request_spot(key(), 0, 1.0),
            Err(MarketError::EmptyRequest)
        );
        assert_eq!(
            p.request_on_demand(key(), 0),
            Err(MarketError::EmptyRequest)
        );
    }

    #[test]
    fn hour_boundaries_recharge_at_current_price() {
        let mut p = provider_with(vec![
            (SimTime::EPOCH, 0.05),
            (SimTime::from_millis(30 * 60 * 1000), 0.08),
        ]);
        let id = p.request_spot(key(), 1, 0.10).expect("granted").id;
        p.advance_to(SimTime::from_hours(2)).expect("advance");
        // The grant's hour at t=0 (price 0.05), then two hour boundaries
        // at t=1h (price 0.08) and t=2h (price 0.08).
        let charges: Vec<(SimTime, f64)> = (p.account().entries().iter())
            .filter(|e| e.allocation == id && e.kind == LedgerKind::SpotHour)
            .map(|e| (e.time, e.amount))
            .collect();
        assert_eq!(
            charges,
            vec![
                (SimTime::EPOCH, 0.05),
                (SimTime::from_hours(1), 0.08),
                (SimTime::from_hours(2), 0.08)
            ]
        );
        // Total: 0.05 (grant) + 0.08 + 0.08.
        assert!((p.account().total_cost() - 0.21).abs() < 1e-12);
        // Two full spot hours were used and paid.
        assert!((p.account().usage().spot_paid_hours - 2.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_triggers_warning_then_eviction_with_refund() {
        // Price jumps above the bid 30 minutes in.
        let cross = SimTime::EPOCH + SimDuration::from_mins(30);
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05), (cross, 0.50)]);
        let id = p.request_spot(key(), 2, 0.10).expect("granted").id;
        let events = p.advance_to(SimTime::from_hours(1)).expect("advance");

        let warn = events
            .iter()
            .find(|(_, e)| matches!(e, ProviderEvent::EvictionWarning { .. }))
            .expect("warning fired");
        assert_eq!(warn.0, cross);
        let evict = events
            .iter()
            .find(|(_, e)| matches!(e, ProviderEvent::Evicted { .. }))
            .expect("eviction fired");
        assert_eq!(evict.0, cross + crate::EC2_EVICTION_WARNING);

        // Grant charged 2 × 0.05 = 0.10, fully refunded: net zero.
        assert!(p.account().total_cost().abs() < 1e-12);
        // 32 minutes of free usage × 2 instances.
        let free = p.account().usage().free_hours;
        assert!((free - 2.0 * (32.0 / 60.0)).abs() < 1e-9, "free={free}");
        assert!(!p.live_spot().any(|a| a.id == id));
    }

    #[test]
    fn warned_lease_does_not_recharge_next_hour() {
        // Cross 59 minutes in: warning at :59, eviction at 1:01, which is
        // after the hour boundary — but no new hour should be charged.
        let cross = SimTime::EPOCH + SimDuration::from_mins(59);
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05), (cross, 0.50)]);
        let _id = p.request_spot(key(), 1, 0.10).expect("granted");
        p.advance_to(SimTime::from_hours(2)).expect("advance");
        let hours = (p.account().entries().iter())
            .filter(|e| e.kind == LedgerKind::SpotHour)
            .count();
        assert_eq!(hours, 1, "no hour recharge after a warning");
        // Net cost: first hour charged then refunded → zero.
        assert!(p.account().total_cost().abs() < 1e-12);
    }

    #[test]
    fn voluntary_termination_keeps_charge_and_records_paid_usage() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        let id = p.request_spot(key(), 1, 0.10).expect("granted").id;
        p.advance_to(SimTime::EPOCH + SimDuration::from_mins(30))
            .expect("advance");
        p.terminate(id).expect("terminate");
        assert!((p.account().total_cost() - 0.05).abs() < 1e-12);
        assert!((p.account().usage().spot_paid_hours - 0.5).abs() < 1e-9);
        assert!(p.terminate(id).is_err(), "double terminate rejected");
    }

    #[test]
    fn on_demand_survives_price_spikes() {
        let cross = SimTime::EPOCH + SimDuration::from_mins(10);
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05), (cross, 9.0)]);
        let id = p.request_on_demand(key(), 3).expect("granted");
        let events = p.advance_to(SimTime::from_hours(1)).expect("advance");
        assert!(!events
            .iter()
            .any(|(_, e)| matches!(e, ProviderEvent::Evicted { .. })));
        // Hour boundary recharges 3 × on-demand price.
        let od = key().instance_type().on_demand_price;
        assert!((p.account().total_cost() - 2.0 * 3.0 * od).abs() < 1e-9);
        p.terminate(id).expect("terminate");
    }

    #[test]
    fn time_cannot_go_backwards() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        p.advance_to(SimTime::from_hours(1)).expect("advance");
        assert_eq!(
            p.advance_to(SimTime::EPOCH),
            Err(MarketError::TimeWentBackwards)
        );
    }

    #[test]
    fn unknown_market_is_an_error() {
        let p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        let missing = MarketKey::new(catalog::c4_2xlarge(), Zone(3));
        assert!(matches!(
            p.spot_price(missing),
            Err(MarketError::UnknownMarket(_))
        ));
    }

    #[test]
    fn live_instance_count_sums_both_kinds() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        p.request_spot(key(), 4, 0.10).expect("spot");
        p.request_on_demand(key(), 3).expect("od");
        assert_eq!(p.live_instance_count(), 7);
    }

    #[test]
    fn capacity_cap_grants_partially_then_refuses() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        p.set_fault_plan(MarketFaultPlan::new(7).with_drought(
            SimTime::EPOCH,
            SimTime::from_hours(10),
            3,
        ));
        let grant = p.request_spot(key(), 5, 0.10).expect("partial grant");
        assert_eq!(grant.granted, 3);
        assert_eq!(grant.requested, 5);
        // Only the granted instances were billed.
        assert!((p.account().total_cost() - 3.0 * 0.05).abs() < 1e-12);
        // The market is now full.
        let err = p.request_spot(key(), 1, 0.10).unwrap_err();
        assert!(matches!(
            err,
            MarketError::InsufficientCapacity { available: 0, .. }
        ));
        let stats = p.tally();
        assert_eq!(stats.partial_grants, 1);
        assert_eq!(stats.capacity_refusals, 1);
        // Capacity frees up once the allocation terminates.
        p.terminate(grant.id).expect("terminate");
        assert!(p.request_spot(key(), 3, 0.10).is_ok());
    }

    #[test]
    fn capacity_cap_outside_window_is_inert() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        p.set_fault_plan(MarketFaultPlan::new(7).with_drought(
            SimTime::from_hours(5),
            SimTime::from_hours(6),
            0,
        ));
        let grant = p.request_spot(key(), 8, 0.10).expect("granted");
        assert_eq!(grant.granted, grant.requested);
    }

    #[test]
    fn throttle_refuses_with_retry_after() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        let retry = SimDuration::from_mins(1);
        p.set_fault_plan(MarketFaultPlan::new(3).with_throttle(1.0, retry));
        let err = p.request_spot(key(), 1, 0.10).unwrap_err();
        assert_eq!(
            err,
            MarketError::RequestLimitExceeded { retry_after: retry }
        );
        assert_eq!(p.tally().throttled, 1);
        // Throttling happens before billing: nothing charged.
        assert_eq!(p.account().total_cost(), 0.0);
    }

    #[test]
    fn boot_delay_defers_billing_to_launch() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        let delay = SimDuration::from_mins(10);
        p.set_fault_plan(MarketFaultPlan::new(11).with_boot_delay(delay, delay));
        let grant = p.request_spot(key(), 2, 0.10).expect("granted");
        assert_eq!(grant.usable_at, SimTime::EPOCH + delay);
        // Nothing billed while booting.
        assert_eq!(p.account().total_cost(), 0.0);
        let view = p.live_spot().find(|a| a.id == grant.id).expect("live");
        assert!(view.is_booting());

        let events = p.advance_to(SimTime::from_hours(2)).expect("advance");
        assert!(matches!(
            events[0],
            (t, ProviderEvent::Launched { allocation }) if t == grant.usable_at && allocation == grant.id
        ));
        // Billing hours anchor at launch: the next boundary is 10 min
        // past the first wall-clock hour.
        let view = p.live_spot().find(|a| a.id == grant.id).expect("live");
        assert!(!view.is_booting());
        assert_eq!(
            view.hour_start,
            grant.usable_at + SimDuration::from_hours(1)
        );
        // First hour charged at launch + one boundary recharge.
        assert!((p.account().total_cost() - 2.0 * (0.05 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn crossing_during_boot_aborts_launch_unbilled() {
        let cross = SimTime::EPOCH + SimDuration::from_mins(5);
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05), (cross, 0.50)]);
        let delay = SimDuration::from_mins(10);
        p.set_fault_plan(MarketFaultPlan::new(11).with_boot_delay(delay, delay));
        let grant = p.request_spot(key(), 4, 0.10).expect("granted");
        let events = p.advance_to(SimTime::from_hours(1)).expect("advance");
        assert_eq!(
            events,
            vec![(
                cross,
                ProviderEvent::LaunchFailed {
                    allocation: grant.id
                }
            )]
        );
        assert_eq!(p.account().total_cost(), 0.0);
        assert_eq!(p.account().usage().free_hours, 0.0);
        assert!(!p.live_spot().any(|a| a.id == grant.id));
        assert_eq!(p.tally().launch_failures, 1);
    }

    #[test]
    fn infant_death_settles_like_a_warning_less_eviction() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        p.set_fault_plan(
            MarketFaultPlan::new(13).with_infant_mortality(1.0, SimDuration::from_mins(30)),
        );
        let grant = p.request_spot(key(), 2, 0.10).expect("granted");
        let dies_at = p
            .spot
            .get(&grant.id)
            .and_then(|l| l.fate)
            .map(|(at, _)| at)
            .expect("doomed");
        assert!(dies_at > SimTime::EPOCH);
        assert!(dies_at <= SimTime::EPOCH + SimDuration::from_mins(30));
        let events = p.advance_to(SimTime::from_hours(1)).expect("advance");
        assert_eq!(
            events,
            vec![(
                dies_at,
                ProviderEvent::Evicted {
                    allocation: grant.id
                }
            )]
        );
        // Charge refunded; the usage up to the death was free.
        assert!(p.account().total_cost().abs() < 1e-12);
        let expect_free = dies_at.since(SimTime::EPOCH).as_hours_f64() * 2.0;
        assert!((p.account().usage().free_hours - expect_free).abs() < 1e-9);
        assert_eq!(p.tally().infant_deaths, 1);
    }

    #[test]
    fn fault_draws_replay_from_seed() {
        let run = |seed: u64| {
            let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
            p.set_fault_plan(
                MarketFaultPlan::new(seed)
                    .with_throttle(0.4, SimDuration::from_mins(1))
                    .with_boot_delay(SimDuration::from_secs(30), SimDuration::from_mins(5))
                    .with_infant_mortality(0.3, SimDuration::from_mins(45)),
            );
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                outcomes.push(p.request_spot(key(), 1, 0.10));
            }
            (outcomes, *p.tally())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds should diverge");
    }

    #[test]
    fn gang_request_is_all_or_nothing() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        p.set_fault_plan(MarketFaultPlan::new(7).with_drought(
            SimTime::EPOCH,
            SimTime::from_hours(10),
            3,
        ));
        // A plain request would be partially granted; the gang refuses.
        let err = p
            .request_spot_gang(TenantId(1), key(), 5, 0.10)
            .unwrap_err();
        assert_eq!(
            err,
            MarketError::InsufficientCapacity {
                market: key(),
                requested: 5,
                available: 3,
            }
        );
        // A refused gang bills nothing and leaves no allocation behind.
        assert_eq!(p.account().total_cost(), 0.0);
        assert!(p.account().entries().is_empty());
        assert_eq!(p.live_instance_count(), 0);
        assert_eq!(p.tally().capacity_refusals, 1);
        // A gang that fits is granted in full.
        let grant = p
            .request_spot_gang(TenantId(1), key(), 3, 0.10)
            .expect("granted");
        assert_eq!(grant.granted, 3);
        assert_eq!(grant.granted, grant.requested);
    }

    #[test]
    fn revoke_settles_like_an_eviction() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        let id = p.request_spot(key(), 2, 0.10).expect("granted").id;
        p.advance_to(SimTime::EPOCH + SimDuration::from_mins(30))
            .expect("advance");
        p.revoke(id).expect("revoke");
        // Charge refunded; the half hour of usage was free.
        assert!(p.account().total_cost().abs() < 1e-12);
        assert!((p.account().usage().free_hours - 1.0).abs() < 1e-9);
        assert_eq!(p.account().usage().spot_paid_hours, 0.0);
        assert!(!p.live_spot().any(|a| a.id == id));
        assert!(p.revoke(id).is_err(), "double revoke rejected");
    }

    #[test]
    fn revoke_of_booting_allocation_is_free() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        let delay = SimDuration::from_mins(10);
        p.set_fault_plan(MarketFaultPlan::new(11).with_boot_delay(delay, delay));
        let grant = p.request_spot(key(), 4, 0.10).expect("granted");
        p.revoke(grant.id).expect("revoke");
        assert_eq!(p.account().total_cost(), 0.0);
        assert!(p.account().entries().is_empty());
        assert_eq!(p.account().usage().free_hours, 0.0);
    }

    #[test]
    fn revoke_rejects_on_demand_and_unknown_ids() {
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
        let od = p.request_on_demand(key(), 1).expect("od");
        assert!(p.revoke(od).is_err(), "on-demand is never revoked");
        assert!(p.revoke(AllocationId(999)).is_err());
    }

    #[test]
    fn tenant_fates_are_independent_of_other_tenants_traffic() {
        // Tenant 5's k-th request must draw the same fate whether or not
        // other tenants issued requests in between.
        let plan = || {
            MarketFaultPlan::new(21)
                .with_throttle(0.4, SimDuration::from_mins(1))
                .with_boot_delay(SimDuration::from_secs(30), SimDuration::from_mins(5))
                .with_infant_mortality(0.3, SimDuration::from_mins(45))
        };
        let solo = {
            let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
            p.set_fault_plan(plan());
            (0..10)
                .map(|_| p.request_spot_gang(TenantId(5), key(), 1, 0.10))
                .collect::<Vec<_>>()
        };
        let interleaved = {
            let mut p = provider_with(vec![(SimTime::EPOCH, 0.05)]);
            p.set_fault_plan(plan());
            let mut out = Vec::new();
            for _ in 0..10 {
                let _ = p.request_spot(key(), 1, 0.10);
                let _ = p.request_spot_gang(TenantId(9), key(), 1, 0.10);
                out.push(p.request_spot_gang(TenantId(5), key(), 1, 0.10));
            }
            out
        };
        // Allocation ids differ (the interleaved run mints more), so
        // compare the fate-bearing fields only.
        let fates = |v: &[Result<SpotGrant, MarketError>]| {
            v.iter()
                .map(|r| match r {
                    Ok(g) => Ok((g.granted, g.usable_at)),
                    Err(e) => Err(e.clone()),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(&solo), fates(&interleaved));
    }

    #[test]
    fn crossing_after_hour_boundary_is_found_in_later_hour() {
        // Price stays low for 1.5 hours, then spikes. The crossing is in
        // billing hour 1, after a boundary recharge.
        let cross = SimTime::EPOCH + SimDuration::from_mins(90);
        let mut p = provider_with(vec![(SimTime::EPOCH, 0.05), (cross, 0.50)]);
        let _ = p.request_spot(key(), 1, 0.10).expect("granted");
        let events = p.advance_to(SimTime::from_hours(3)).expect("advance");
        let kinds: Vec<&ProviderEvent> = events.iter().map(|(_, e)| e).collect();
        assert!(matches!(kinds[0], ProviderEvent::EvictionWarning { .. }));
        assert!(matches!(kinds[1], ProviderEvent::Evicted { .. }));
        let hours: Vec<SimTime> = (p.account().entries().iter())
            .filter(|e| e.kind == LedgerKind::SpotHour)
            .map(|e| e.time)
            .collect();
        assert_eq!(hours, vec![SimTime::EPOCH, SimTime::from_hours(1)]);
        // Hour 0 paid (0.05), hour 1 charged then refunded → total 0.05.
        assert!((p.account().total_cost() - 0.05).abs() < 1e-12);
        // Hour 0 fully paid usage; 32 minutes free in hour 1.
        assert!((p.account().usage().spot_paid_hours - 1.0).abs() < 1e-12);
    }
}
