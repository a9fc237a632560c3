//! What the provider emits, once.
//!
//! Every grant, refusal, throttle, warning, eviction, launch and
//! termination the provider performs is one typed [`Happened`]: the
//! provider applies it to its [`MarketTally`] and — only with a recorder
//! attached — converts it to its `obs` event. That conversion is the one
//! place a market name is interned, so the always-on path takes no lock.

use proteus_obs::MarketEvent;
use proteus_simtime::{SimDuration, SimTime};

use crate::instance::MarketKey;
use crate::provider::{AllocationId, ProviderEvent};

/// One provider happening, before any name is rendered.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Happened {
    SpotGranted {
        market: MarketKey,
        allocation: AllocationId,
        count: u32,
        bid: f64,
    },
    PartialGrant {
        market: MarketKey,
        requested: u32,
        granted: u32,
    },
    CapacityRefused {
        market: MarketKey,
        requested: u32,
    },
    Throttled {
        market: MarketKey,
        retry_after: SimDuration,
    },
    BidRejected {
        market: MarketKey,
        bid: f64,
        price: f64,
    },
    OnDemandGranted {
        allocation: AllocationId,
        count: u32,
        price: f64,
    },
    EvictionWarning {
        allocation: AllocationId,
        evict_at: SimTime,
    },
    /// A provider-side revocation: a warned eviction, a revoke, or —
    /// with `infant` — a launched allocation's warning-less death.
    Evicted {
        allocation: AllocationId,
        infant: bool,
    },
    Launched(AllocationId),
    LaunchFailed(AllocationId),
    Terminated(AllocationId),
}

impl Happened {
    /// The recorded form. Interns market names, so it runs only under
    /// the recorder guard.
    pub(crate) fn to_obs(self) -> MarketEvent {
        match self {
            Happened::SpotGranted {
                market,
                allocation,
                count,
                bid,
            } => MarketEvent::SpotGranted {
                market: market.interned_name(),
                allocation: allocation.0,
                count: u64::from(count),
                bid,
            },
            Happened::PartialGrant {
                market,
                requested,
                granted,
            } => MarketEvent::PartialGrant {
                market: market.interned_name(),
                requested: u64::from(requested),
                granted: u64::from(granted),
            },
            Happened::CapacityRefused { market, requested } => MarketEvent::CapacityRefused {
                market: market.interned_name(),
                requested: u64::from(requested),
            },
            Happened::Throttled {
                market,
                retry_after,
            } => MarketEvent::Throttled {
                market: market.interned_name(),
                retry_after_ms: retry_after.as_millis(),
            },
            Happened::BidRejected { market, bid, price } => MarketEvent::BidRejected {
                market: market.interned_name(),
                bid,
                price,
            },
            Happened::OnDemandGranted {
                allocation,
                count,
                price,
            } => MarketEvent::OnDemandGranted {
                allocation: allocation.0,
                count: u64::from(count),
                price,
            },
            Happened::EvictionWarning {
                allocation,
                evict_at,
            } => MarketEvent::EvictionWarning {
                allocation: allocation.0,
                evict_at_ms: evict_at.as_millis(),
            },
            Happened::Evicted { allocation, .. } => MarketEvent::Evicted {
                allocation: allocation.0,
            },
            Happened::Launched(allocation) => MarketEvent::Launched {
                allocation: allocation.0,
            },
            Happened::LaunchFailed(allocation) => MarketEvent::LaunchFailed {
                allocation: allocation.0,
            },
            Happened::Terminated(allocation) => MarketEvent::Terminated {
                allocation: allocation.0,
            },
        }
    }

    /// The form [`CloudProvider::advance_to`](crate::CloudProvider::advance_to)
    /// returns, for the happenings it reports.
    pub(crate) fn step_event(self) -> Option<ProviderEvent> {
        match self {
            Happened::EvictionWarning {
                allocation,
                evict_at,
            } => Some(ProviderEvent::EvictionWarning {
                allocation,
                evict_at,
            }),
            Happened::Evicted { allocation, .. } => Some(ProviderEvent::Evicted { allocation }),
            Happened::Launched(allocation) => Some(ProviderEvent::Launched { allocation }),
            Happened::LaunchFailed(allocation) => Some(ProviderEvent::LaunchFailed { allocation }),
            _ => None,
        }
    }
}

/// What a provider has done over its lifetime, folded from its
/// emissions: each count is the number of `market.*` events of one kind
/// it emitted (infant deaths are the `market.evicted` a doomed lease's
/// death emitted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarketTally {
    /// Spot requests granted, in full or in part (`market.spot_granted`).
    pub spot_grants: u32,
    /// Spot grants below the requested count (`market.partial_grant`).
    pub partial_grants: u32,
    /// Spot requests refused for capacity (`market.capacity_refused`).
    pub capacity_refusals: u32,
    /// Spot requests the API throttled (`market.throttled`).
    pub throttled: u32,
    /// Allocations the provider took back (`market.evicted`): warned
    /// evictions, revokes (a booting allocation's included) and infant
    /// deaths.
    pub evictions: u32,
    /// Launches a price crossing aborted during boot
    /// (`market.launch_failed`).
    pub launch_failures: u32,
    /// Launched allocations the infant-mortality regime killed.
    pub infant_deaths: u32,
}

impl MarketTally {
    /// Folds one emission in: the only place a provider happening maps
    /// to a count.
    pub(crate) fn apply(&mut self, h: &Happened) {
        match h {
            Happened::SpotGranted { .. } => self.spot_grants += 1,
            Happened::PartialGrant { .. } => self.partial_grants += 1,
            Happened::CapacityRefused { .. } => self.capacity_refusals += 1,
            Happened::Throttled { .. } => self.throttled += 1,
            Happened::Evicted { infant, .. } => {
                self.evictions += 1;
                self.infant_deaths += u32::from(*infant);
            }
            Happened::LaunchFailed(_) => self.launch_failures += 1,
            Happened::BidRejected { .. }
            | Happened::OnDemandGranted { .. }
            | Happened::EvictionWarning { .. }
            | Happened::Launched(_)
            | Happened::Terminated(_) => {}
        }
    }
}
