//! Hourly billing ledger and machine-hour accounting.
//!
//! EC2-era billing semantics (Sec. 2.2 of the paper):
//!
//! * every allocation is charged at the **start** of each billing hour, at
//!   the spot price in effect at that instant (on-demand allocations at
//!   their fixed price);
//! * if the provider evicts a spot allocation, the charge for the current
//!   (partial) billing hour is refunded — any work done in that hour was
//!   **free compute**;
//! * voluntary termination mid-hour forfeits the remainder of the paid
//!   hour (so smart customers terminate just before hour boundaries).
//!
//! The ledger also tracks used machine-hours split into on-demand, paid
//! spot, and free categories, which is exactly the breakdown of the
//! paper's Fig. 10.

use proteus_simtime::SimTime;

use crate::provider::AllocationId;

/// The kind of a ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerKind {
    /// An hour of on-demand capacity charged in advance.
    OnDemandHour,
    /// An hour of spot capacity charged in advance at the market price.
    SpotHour,
    /// Refund of the current billing hour after a provider eviction.
    EvictionRefund,
}

/// One billing event.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// When the charge or refund was applied.
    pub time: SimTime,
    /// The allocation it applies to.
    pub allocation: AllocationId,
    /// Charge or refund classification.
    pub kind: LedgerKind,
    /// Signed dollar amount: positive for charges, negative for refunds.
    pub amount: f64,
    /// Number of instances covered by the entry.
    pub instances: u32,
}

/// Used machine-hours split by how they were paid for.
///
/// "Free" hours are spot hours whose billing hour was refunded because the
/// provider evicted the allocation (Fig. 10's third category).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UsageBreakdown {
    /// Machine-hours on on-demand (reliable) instances.
    pub on_demand_hours: f64,
    /// Machine-hours on spot instances that were paid for.
    pub spot_paid_hours: f64,
    /// Machine-hours on spot instances refunded after eviction.
    pub free_hours: f64,
}

impl UsageBreakdown {
    /// Total used machine-hours across all categories.
    pub fn total_hours(&self) -> f64 {
        self.on_demand_hours + self.spot_paid_hours + self.free_hours
    }

    /// Fraction of all machine-hours that were free compute.
    ///
    /// Returns 0 when no hours have been used.
    pub fn free_fraction(&self) -> f64 {
        let total = self.total_hours();
        if total <= 0.0 {
            0.0
        } else {
            self.free_hours / total
        }
    }

    /// Accumulates another breakdown into this one.
    pub fn accumulate(&mut self, other: &UsageBreakdown) {
        self.on_demand_hours += other.on_demand_hours;
        self.spot_paid_hours += other.spot_paid_hours;
        self.free_hours += other.free_hours;
    }
}

/// Accumulates ledger entries and usage for one simulated customer.
#[derive(Debug, Clone, Default)]
pub struct BillingAccount {
    entries: Vec<LedgerEntry>,
    usage: UsageBreakdown,
}

impl BillingAccount {
    /// An empty account.
    pub fn new() -> Self {
        BillingAccount::default()
    }

    /// Records a charge (positive `amount`) or refund (negative).
    pub fn record(&mut self, entry: LedgerEntry) {
        self.entries.push(entry);
    }

    /// Adds used on-demand machine-hours.
    pub fn add_on_demand_usage(&mut self, hours: f64) {
        self.usage.on_demand_hours += hours;
    }

    /// Adds used, paid-for spot machine-hours.
    pub fn add_spot_usage(&mut self, hours: f64) {
        self.usage.spot_paid_hours += hours;
    }

    /// Adds free (refunded) spot machine-hours.
    pub fn add_free_usage(&mut self, hours: f64) {
        self.usage.free_hours += hours;
    }

    /// Net dollars spent so far (charges minus refunds).
    pub fn total_cost(&self) -> f64 {
        self.entries.iter().map(|e| e.amount).sum()
    }

    /// Total refunds received (a non-negative number).
    pub fn total_refunds(&self) -> f64 {
        -self
            .entries
            .iter()
            .filter(|e| e.kind == LedgerKind::EvictionRefund)
            .map(|e| e.amount)
            .sum::<f64>()
    }

    /// All ledger entries in the order they were recorded.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// The machine-hour usage breakdown.
    pub fn usage(&self) -> &UsageBreakdown {
        &self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: LedgerKind, amount: f64) -> LedgerEntry {
        LedgerEntry {
            time: SimTime::EPOCH,
            allocation: AllocationId(1),
            kind,
            amount,
            instances: 2,
        }
    }

    #[test]
    fn total_cost_nets_refunds() {
        let mut acct = BillingAccount::new();
        acct.record(entry(LedgerKind::SpotHour, 0.10));
        acct.record(entry(LedgerKind::SpotHour, 0.10));
        acct.record(entry(LedgerKind::EvictionRefund, -0.10));
        assert!((acct.total_cost() - 0.10).abs() < 1e-12);
        assert!((acct.total_refunds() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn usage_breakdown_accumulates() {
        let mut acct = BillingAccount::new();
        acct.add_on_demand_usage(2.0);
        acct.add_spot_usage(5.0);
        acct.add_free_usage(3.0);
        let u = acct.usage();
        assert!((u.total_hours() - 10.0).abs() < 1e-12);
        assert!((u.free_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn free_fraction_of_empty_usage_is_zero() {
        assert_eq!(UsageBreakdown::default().free_fraction(), 0.0);
    }

    #[test]
    fn accumulate_merges_categories() {
        let mut a = UsageBreakdown {
            on_demand_hours: 1.0,
            spot_paid_hours: 2.0,
            free_hours: 3.0,
        };
        let b = UsageBreakdown {
            on_demand_hours: 0.5,
            spot_paid_hours: 0.5,
            free_hours: 0.5,
        };
        a.accumulate(&b);
        assert!((a.total_hours() - 7.5).abs() < 1e-12);
    }
}
