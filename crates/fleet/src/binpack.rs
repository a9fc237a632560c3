//! Bin-packing of job slots onto shared reliable machines.
//!
//! Proteus keeps a small reliable (on-demand) tier per job for its
//! ActivePS/controller state. Run independently, every trial pays for a
//! whole machine; at fleet scale the reliable tier amortizes — many
//! jobs' slots pack onto one shared machine. This module does the
//! packing: first-fit onto existing machines, acquiring a new on-demand
//! machine only when every open machine is full, and terminating
//! machines the moment they empty.

use proteus_market::{AllocationId, CloudProvider, MarketError, MarketKey};

/// One shared on-demand machine and its slot occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Machine {
    alloc: AllocationId,
    used: u32,
}

/// The shared reliable pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliablePool {
    market: MarketKey,
    slots_per_machine: u32,
    machines: Vec<Option<Machine>>,
    /// Peak machine count, for reporting.
    peak: usize,
}

impl ReliablePool {
    /// An empty pool of `market` machines carved into
    /// `slots_per_machine` slots each.
    pub fn new(market: MarketKey, slots_per_machine: u32) -> Self {
        ReliablePool {
            market,
            slots_per_machine: slots_per_machine.max(1),
            machines: Vec::new(),
            peak: 0,
        }
    }

    /// Machines currently held.
    pub fn machine_count(&self) -> usize {
        self.machines.iter().flatten().count()
    }

    /// Most machines ever held at once.
    pub fn peak_machines(&self) -> usize {
        self.peak
    }

    /// Assigns `slots` slots to a job, first-fit onto the lowest-index
    /// machine with room, acquiring a fresh machine when none fits.
    /// Returns the machine index the job must pass back to
    /// [`release`](Self::release). Requests wider than a whole machine
    /// are refused rather than split — a job's reliable state lives on
    /// one machine.
    pub fn assign(
        &mut self,
        provider: &mut CloudProvider<'_>,
        slots: u32,
    ) -> Result<usize, MarketError> {
        if slots == 0 || slots > self.slots_per_machine {
            return Err(MarketError::EmptyRequest);
        }
        for (i, m) in self.machines.iter_mut().enumerate() {
            if let Some(m) = m {
                if m.used + slots <= self.slots_per_machine {
                    m.used += slots;
                    return Ok(i);
                }
            }
        }
        let alloc = provider.request_on_demand(self.market, 1)?;
        let machine = Machine { alloc, used: slots };
        // Reuse a vacated index if one exists, else append.
        let idx = match self.machines.iter().position(Option::is_none) {
            Some(i) => {
                self.machines[i] = Some(machine);
                i
            }
            None => {
                self.machines.push(Some(machine));
                self.machines.len() - 1
            }
        };
        self.peak = self.peak.max(self.machine_count());
        Ok(idx)
    }

    /// Returns `slots` slots on machine `idx`. An emptied machine is
    /// terminated immediately (the already-paid hour is forfeited, as
    /// with any voluntary termination).
    pub fn release(&mut self, provider: &mut CloudProvider<'_>, idx: usize, slots: u32) {
        let Some(slot) = self.machines.get_mut(idx) else {
            return;
        };
        let Some(m) = slot else {
            return;
        };
        m.used = m.used.saturating_sub(slots);
        if m.used == 0 {
            let _ = provider.terminate(m.alloc);
            *slot = None;
        }
    }

    /// Terminates every held machine and returns the paper-accounting
    /// credit for the unused fraction of each machine's current billing
    /// hour (a fleet that ends mid-hour is not charged for the
    /// remainder).
    pub fn teardown(&mut self, provider: &mut CloudProvider<'_>) -> f64 {
        let mut credit = 0.0;
        for m in self.machines.iter_mut().filter_map(Option::take) {
            credit += provider.unused_hour_credit(m.alloc);
            let _ = provider.terminate(m.alloc);
        }
        credit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_market::{catalog, PriceTrace, TraceSet, Zone};
    use proteus_simtime::{SimDuration, SimTime};

    fn key() -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(0))
    }

    fn provider() -> CloudProvider<'static> {
        let mut set = TraceSet::new();
        set.insert(
            key(),
            PriceTrace::from_points(vec![(SimTime::EPOCH, 0.05)]).expect("trace"),
        );
        CloudProvider::new(set)
    }

    #[test]
    fn first_fit_shares_one_machine_until_full() {
        let mut p = provider();
        let mut pool = ReliablePool::new(key(), 4);
        let a = pool.assign(&mut p, 2).expect("assign");
        let b = pool.assign(&mut p, 2).expect("assign");
        assert_eq!(a, b, "both jobs share the first machine");
        assert_eq!(pool.machine_count(), 1);
        let c = pool.assign(&mut p, 1).expect("assign");
        assert_ne!(a, c, "the full machine overflows to a second");
        assert_eq!(pool.machine_count(), 2);
    }

    #[test]
    fn release_terminates_emptied_machines_and_reuses_indices() {
        let mut p = provider();
        let mut pool = ReliablePool::new(key(), 2);
        let a = pool.assign(&mut p, 2).expect("assign");
        let b = pool.assign(&mut p, 1).expect("assign");
        pool.release(&mut p, a, 2);
        assert_eq!(pool.machine_count(), 1);
        let c = pool.assign(&mut p, 2).expect("assign");
        assert_eq!(c, a, "vacated index is reused");
        assert_ne!(b, c);
        assert_eq!(pool.peak_machines(), 2);
    }

    #[test]
    fn oversized_and_zero_requests_are_refused() {
        let mut p = provider();
        let mut pool = ReliablePool::new(key(), 2);
        assert!(pool.assign(&mut p, 3).is_err());
        assert!(pool.assign(&mut p, 0).is_err());
        assert_eq!(pool.machine_count(), 0);
    }

    #[test]
    fn teardown_credits_unused_hour_fraction() {
        let mut p = provider();
        let mut pool = ReliablePool::new(key(), 4);
        pool.assign(&mut p, 1).expect("assign");
        p.advance_to(SimTime::EPOCH + SimDuration::from_mins(15))
            .expect("advance");
        let credit = pool.teardown(&mut p);
        let price = key().instance_type().on_demand_price;
        assert!((credit - 0.75 * price).abs() < 1e-9, "credit={credit}");
        assert_eq!(pool.machine_count(), 0);
    }
}
