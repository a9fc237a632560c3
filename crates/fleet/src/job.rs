//! Job identity, specification, and lifecycle state.

use std::fmt;

use proteus_market::TenantId;

/// Identifies one job within a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl JobId {
    /// The market-plane tenant this job's fault draws route through.
    ///
    /// Tenant 0 is [`TenantId::DEFAULT`] (the legacy single-job stream),
    /// so fleet jobs map to tenants `1..`: every job gets a seed-split
    /// RNG stream of its own and one job's request pattern never
    /// perturbs another's fate — the property that makes fleet runs
    /// bit-identical whatever the scheduler interleaving.
    pub fn tenant(self) -> TenantId {
        TenantId(self.0 + 1)
    }
}

/// What one fleet job needs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJobSpec {
    /// Useful work required, in φ-scaled core-hours. The sweep driver
    /// extends this target rung by rung.
    pub work_core_hours: f64,
    /// Minimum worker set: the gang acquires exactly this many spot
    /// instances atomically, or not at all.
    pub min_gang: u32,
    /// Priority tier (0 = highest). Tiers weight the fair queue; aging
    /// keeps low tiers from starving.
    pub tier: u32,
    /// Whether the scheduler may preempt this job's gang to make room
    /// for a higher-value gang. Sweep trials are preemptible; a
    /// production job would not be.
    pub preemptible: bool,
    /// Slots needed on the shared reliable (on-demand) pool — the
    /// job's parameter-server / controller footprint, bin-packed with
    /// other tenants' slots onto shared machines.
    pub reliable_slots: u32,
}

impl FleetJobSpec {
    /// A small sweep-style trial: a preemptible low-tier gang of
    /// `gang` instances chasing `work` core-hours.
    pub fn trial(work: f64, gang: u32, tier: u32) -> Self {
        FleetJobSpec {
            work_core_hours: work,
            min_gang: gang,
            tier,
            preemptible: true,
            reliable_slots: 1,
        }
    }
}

/// Where a job is in its lifecycle. Every job ends in one of the three
/// terminal states — `Completed`, `Killed`, or `Unfinished` — never a
/// panic: an impossible market yields `Unfinished`, not a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting to pass admission control.
    Submitted,
    /// Admitted; queued for gang acquisition.
    Waiting,
    /// Gang held; accruing work.
    Running,
    /// Reached its work target; gang released with the final partial
    /// hour credited.
    Completed,
    /// Killed by its owner (the sweep's early-kill rule).
    Killed,
    /// The fleet horizon ended first — the typed "did not converge"
    /// outcome.
    Unfinished,
}

impl JobState {
    /// Whether the job is past admission and still live.
    pub fn is_admitted(self) -> bool {
        matches!(self, JobState::Waiting | JobState::Running)
    }

    /// Whether the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Killed | JobState::Unfinished
        )
    }
}

/// Per-job accounting the fleet reports.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// The job.
    pub id: JobId,
    /// Terminal (or last observed) state.
    pub state: JobState,
    /// φ-scaled core-hours accrued.
    pub work_done: f64,
    /// Dollars billed to this job's spot gangs, net of eviction refunds
    /// and final-hour credits.
    pub spot_cost: f64,
    /// Provider evictions absorbed.
    pub evictions: u32,
    /// Scheduler preemptions absorbed.
    pub preemptions: u32,
    /// Gang launches (first launch plus every relaunch).
    pub launches: u32,
    /// Most scheduling rounds the job ever waited between becoming
    /// runnable and launching — the fairness/starvation axis.
    pub max_rounds_waited: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_are_distinct_and_never_default() {
        assert_ne!(JobId(0).tenant(), TenantId::DEFAULT);
        assert_ne!(JobId(0).tenant(), JobId(1).tenant());
    }

    #[test]
    fn terminal_states() {
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Killed.is_terminal());
        assert!(JobState::Unfinished.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Waiting.is_terminal());
        assert!(!JobState::Submitted.is_terminal());
    }
}
