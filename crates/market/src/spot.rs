//! The tenant-visible spot allocation record.
//!
//! An *allocation* (the paper's atomic unit, Sec. 4) is a set of instances
//! of the same type acquired at the same time with the same bid. This
//! module holds one live allocation's state — booting, running, or warned
//! (the two-minute eviction notice has been issued) — and the billing-hour
//! rules every lifecycle loop reads from it: when the current hour ends,
//! what it was billed at, and how much of it is left.

use proteus_simtime::{SimDuration, SimTime};

use crate::instance::MarketKey;
use crate::provider::AllocationId;

/// Lifecycle state of a live spot allocation (a revoked or terminated
/// allocation is no longer held at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpotState {
    /// The request was granted but the instances have not booted yet
    /// (the boot-delay fault regime); nothing is billed until launch,
    /// and a price crossing during boot aborts the launch unbilled.
    Booting,
    /// Instances are running and the bid still covers the market price.
    Running,
    /// The market crossed above the bid; instances terminate at the
    /// embedded instant (crossing time plus the warning lead).
    WarningIssued {
        /// When the instances will actually be revoked.
        evict_at: SimTime,
    },
}

/// End of a billing hour that started at `hour_start` — for spot and
/// on-demand allocations alike.
pub(crate) fn billing_hour_end(hour_start: SimTime) -> SimTime {
    hour_start + SimDuration::from_hours(1)
}

/// One live spot allocation as its tenant sees it. The provider keeps
/// this record current; [`CloudProvider::live_spot`] lends it out.
///
/// [`CloudProvider::live_spot`]: crate::CloudProvider::live_spot
#[derive(Debug, Clone, PartialEq)]
pub struct SpotAllocation {
    /// Stable identifier.
    pub id: AllocationId,
    /// Which market the instances were bought in.
    pub market: MarketKey,
    /// Number of instances in the allocation.
    pub count: u32,
    /// The immutable bid price per instance-hour.
    pub bid: f64,
    /// When the allocation was granted.
    pub granted_at: SimTime,
    /// When the instances become (or became) usable. Equals
    /// `granted_at` unless a boot-delay fault regime is active; for a
    /// delayed launch, billing hours re-anchor here when the instances
    /// come up.
    pub usable_at: SimTime,
    /// Start of the current billing hour.
    pub hour_start: SimTime,
    /// Per-instance price the provider charged for the current billing
    /// hour — the market price at `hour_start` — or zero while booting
    /// (nothing is billed before launch).
    pub hour_price: f64,
    /// Lifecycle state.
    pub state: SpotState,
}

impl SpotAllocation {
    /// End of the current billing hour.
    pub fn hour_end(&self) -> SimTime {
        billing_hour_end(self.hour_start)
    }

    /// Time remaining in the current billing hour at `now` (the paper's
    /// ωᵢ upper bound on useful compute).
    pub fn time_to_hour_end(&self, now: SimTime) -> SimDuration {
        self.hour_end().since(now.max(self.hour_start))
    }

    /// Dollars charged for the current billing hour across all
    /// instances (what an eviction refunds).
    pub fn hour_charge(&self) -> f64 {
        self.hour_price * f64::from(self.count)
    }

    /// Whether the instances are granted but not yet usable.
    pub fn is_booting(&self) -> bool {
        matches!(self.state, SpotState::Booting)
    }

    /// Whether an eviction warning is pending.
    pub fn is_warned(&self) -> bool {
        matches!(self.state, SpotState::WarningIssued { .. })
    }

    /// When the outstanding warning will evict the instances, if warned.
    pub fn evict_at(&self) -> Option<SimTime> {
        match self.state {
            SpotState::WarningIssued { evict_at } => Some(evict_at),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{catalog, Zone};

    fn lease(granted_ms: u64) -> SpotAllocation {
        let granted_at = SimTime::from_millis(granted_ms);
        SpotAllocation {
            id: AllocationId(1),
            market: MarketKey::new(catalog::c4_xlarge(), Zone(0)),
            count: 4,
            bid: 0.10,
            granted_at,
            usable_at: granted_at,
            hour_start: granted_at,
            hour_price: 0.05,
            state: SpotState::Running,
        }
    }

    #[test]
    fn hour_arithmetic_anchors_on_grant() {
        let l = lease(500);
        assert_eq!(
            l.hour_end(),
            SimTime::from_millis(500) + SimDuration::from_hours(1)
        );
        let mid = SimTime::from_millis(500) + SimDuration::from_mins(40);
        assert_eq!(l.time_to_hour_end(mid), SimDuration::from_mins(20));
        assert_eq!(l.hour_charge(), 0.05 * 4.0);
    }

    #[test]
    fn time_to_hour_end_clamps_before_hour_start() {
        let l = lease(1_000_000);
        // Querying before the hour started yields the full hour.
        assert_eq!(
            l.time_to_hour_end(SimTime::EPOCH),
            SimDuration::from_hours(1)
        );
    }

    #[test]
    fn liveness_tracks_state() {
        let mut l = lease(0);
        l.state = SpotState::Booting;
        assert!(l.is_booting());
        assert!(!l.is_warned());
        l.state = SpotState::Running;
        assert!(!l.is_booting());
        assert_eq!(l.evict_at(), None);
        let evict_at = SimTime::from_millis(120_000);
        l.state = SpotState::WarningIssued { evict_at };
        assert!(l.is_warned());
        assert_eq!(l.evict_at(), Some(evict_at));
    }
}
