//! Job-queue execution (paper Sec. 5).
//!
//! "Proteus assumes that multiple ML applications are executed in
//! sequence. Upon completing the final job in the queue, Proteus
//! immediately terminates the on-demand resources. It then waits until
//! the end of current billing hours to terminate the spot allocations,
//! in hope that they are evicted by AWS prior to the end of the billing
//! hour, lowering the overall cost."
//!
//! This module runs such a sequence against one shared provider: spot
//! allocations (and their already-paid partial hours) carry across job
//! boundaries — exactly the behavior the paper's per-job accounting
//! ("do not charge a given job for any minutes that remained in a job's
//! final billing hours") assumes — and the final teardown idles spot
//! allocations to their billing-hour ends hoping for eviction refunds.

use proteus_bidbrain::BetaEstimator;
use proteus_market::{AllocationId, CloudProvider, TraceSet, UsageBreakdown};
use proteus_simtime::{SimDuration, SimTime};

use super::JobSim;
use crate::scheme::Scheme;

/// Outcome of a queue of sequentially executed jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueOutcome {
    /// Wall-clock runtime of each job (start of its work to completion).
    pub job_runtimes: Vec<SimDuration>,
    /// Total dollars billed for the whole queue, including the final
    /// idle-to-hour-end teardown (minus any lucky eviction refunds).
    pub total_cost: f64,
    /// Time from queue start to the completion of the last job.
    pub makespan: SimDuration,
    /// Spot evictions across the queue (including teardown evictions).
    pub evictions: u32,
    /// Machine-hour usage across the queue.
    pub usage: UsageBreakdown,
    /// Whether every job finished within its horizon.
    pub completed: bool,
    /// Refunds collected during the hopeful teardown specifically.
    pub teardown_refunds: f64,
}

/// Runs `n_jobs` identical jobs back-to-back under one scheme, sharing
/// the provider (and therefore live spot allocations and their paid
/// hours) across job boundaries.
pub fn run_job_queue(
    scheme: &Scheme,
    n_jobs: usize,
    traces: &TraceSet,
    beta: &BetaEstimator,
    start: SimTime,
    per_job_horizon: SimDuration,
) -> QueueOutcome {
    assert!(n_jobs > 0, "a queue needs at least one job");
    let mut sim = JobSim::new(scheme, CloudProvider::new(traces), beta, start);
    sim.provision_base();

    let mut job_runtimes = Vec::with_capacity(n_jobs);
    let mut completed = true;
    let mut last_end = start;
    for _ in 0..n_jobs {
        let job_start = sim.provider.now().max(start);
        // A fresh work quota for the next job.
        sim.work_done = 0.0;
        sim.checkpointed_work = 0.0;
        let (end, done) = sim.run_until_done(job_start + per_job_horizon);
        job_runtimes.push(end - job_start);
        completed &= done;
        last_end = end;
    }

    // Sec. 5 teardown: on-demand released immediately; spot allocations
    // idle to the ends of their billing hours hoping for evictions.
    let refunds_before = sim.provider.account().total_refunds();
    sim.hopeful_teardown();
    let teardown_refunds = sim.provider.account().total_refunds() - refunds_before;

    QueueOutcome {
        job_runtimes,
        total_cost: sim.account_cost(),
        makespan: last_end - start,
        evictions: sim.provider.tally().evictions,
        usage: *sim.provider.account().usage(),
        completed,
        teardown_refunds,
    }
}

/// The queue's teardown, kept here so `sim.rs` stays the per-job loop.
impl JobSim<'_> {
    /// The Sec. 5 hopeful teardown: the on-demand tier (and any
    /// degraded-mode fallback) goes at once.
    fn hopeful_teardown(&mut self) {
        if let Some(id) = self.od_alloc.take() {
            let _ = self.provider.terminate(id);
        }
        if let Some((id, _)) = self.fallback.take() {
            let _ = self.provider.terminate(id);
        }
        // Idle each spot allocation to its billing-hour end; the
        // provider evicts (and refunds) any whose market spikes first.
        // A warned allocation stops billing new hours (its hour boundary
        // never moves), so wait for its eviction instead — otherwise a
        // warning issued just before an hour end pins `next_end` in
        // place and the loop never advances.
        while let Some(next_end) = self
            .provider
            .live_spot()
            .map(|a| a.evict_at().unwrap_or(a.hour_end()))
            .min()
        {
            // `next_end` is a future hour boundary or eviction instant;
            // `advance_to` only errors on time moving backwards.
            #[allow(clippy::expect_used)]
            self.provider
                .advance_to(next_end)
                .expect("time moves forward");
            // Terminate every allocation whose hour just ended: we
            // advanced exactly to the boundary, so its recharge has hit.
            // Terminating at once uses none of that fresh hour, which is
            // credited whole like the per-job accounting does.
            let renewed: Vec<AllocationId> = self
                .provider
                .live_spot()
                .filter(|a| a.hour_start >= next_end)
                .map(|a| a.id)
                .collect();
            for id in renewed {
                self.credits += self.provider.unused_hour_credit(id);
                let _ = self.provider.terminate(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{JobSpec, SchemeKind};
    use crate::sim::default_on_demand_market;
    use proteus_market::{MarketModel, PriceTrace, TraceGenerator};

    fn flat_traces(price: f64) -> TraceSet {
        let mut set = TraceSet::new();
        set.insert(
            default_on_demand_market(),
            PriceTrace::from_points(vec![(SimTime::EPOCH, price)]).expect("flat trace"),
        );
        set
    }

    fn scheme(hours: f64) -> Scheme {
        Scheme {
            kind: SchemeKind::paper_proteus(),
            job: JobSpec::cluster_b_job(hours, default_on_demand_market()),
        }
    }

    #[test]
    fn queue_completes_all_jobs_in_sequence() {
        let out = run_job_queue(
            &scheme(1.0),
            3,
            &flat_traces(0.05),
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(24),
        );
        assert!(out.completed);
        assert_eq!(out.job_runtimes.len(), 3);
        // Makespan covers all three jobs back to back.
        let sum: f64 = out.job_runtimes.iter().map(|r| r.as_hours_f64()).sum();
        assert!((out.makespan.as_hours_f64() - sum).abs() < 0.1);
    }

    #[test]
    fn job_boundaries_in_a_queue_are_free() {
        // The Sec. 5 point of queueing: allocations (and their paid
        // hours) carry across job boundaries, so three queued half-hour
        // jobs cost the same as one job with the combined work — the
        // boundary itself adds nothing.
        let traces = flat_traces(0.05);
        let beta = BetaEstimator::new();
        let fused = run_job_queue(
            &scheme(1.5),
            1,
            &traces,
            &beta,
            SimTime::EPOCH,
            SimDuration::from_hours(24),
        );
        assert!(fused.completed);
        let queued = run_job_queue(
            &scheme(0.5),
            3,
            &traces,
            &beta,
            SimTime::EPOCH,
            SimDuration::from_hours(24),
        );
        assert!(queued.completed);
        let ratio = queued.total_cost / fused.total_cost;
        assert!(
            (0.8..1.2).contains(&ratio),
            "3 queued jobs ({}) ≈ 1 fused job ({}), ratio {ratio}",
            queued.total_cost,
            fused.total_cost
        );
        // And the queue's realized total still beats renting the same
        // machine-hours on-demand.
        let od_equiv = queued.usage.total_hours() * 0.209;
        assert!(queued.total_cost < od_equiv);
    }

    #[test]
    fn teardown_survives_warning_straddling_an_hour_end() {
        // Regression test: a price spike just before a billing-hour end
        // issues a warning whose eviction lands *after* the boundary.
        // Warned leases stop billing new hours, so the teardown loop
        // must wait on `evict_at` rather than the (now frozen) hour end
        // — the old hour-end-only target spun forever here.
        let mut traces = TraceSet::new();
        traces.insert(
            default_on_demand_market(),
            PriceTrace::from_points(vec![
                (SimTime::EPOCH, 0.05),
                (SimTime::EPOCH + SimDuration::from_secs(3594), 5.0),
                (SimTime::EPOCH + SimDuration::from_secs(3780), 0.05),
            ])
            .expect("ordered points"),
        );
        let out = run_job_queue(
            &scheme(0.25),
            1,
            &traces,
            &BetaEstimator::new(),
            SimTime::EPOCH,
            SimDuration::from_hours(24),
        );
        assert!(out.completed);
        assert!(
            out.evictions >= 1,
            "the straddling warning must land as an eviction: {out:?}"
        );
        assert!(
            out.teardown_refunds > 0.0,
            "the evicted hour is refunded during teardown: {out:?}"
        );
    }

    #[test]
    fn teardown_collects_refunds_on_spiky_markets() {
        // A market that spikes frequently: during the hopeful teardown
        // some allocations should be evicted and refunded.
        let gen = TraceGenerator::new(40, MarketModel::volatile());
        let keys = proteus_market::catalog::paper_markets();
        let traces = gen.generate_set(&keys, SimDuration::from_hours(24 * 4));
        let mut beta = BetaEstimator::new();
        for k in &keys {
            beta.train(
                *k,
                traces.get(k).expect("generated"),
                SimTime::EPOCH,
                SimTime::from_hours(24),
                SimDuration::from_mins(60),
                &BetaEstimator::default_deltas(),
            );
        }
        let mut any_refund = false;
        for start_h in [24u64, 30, 36, 42, 48] {
            let out = run_job_queue(
                &scheme(1.0),
                2,
                &traces,
                &beta,
                SimTime::from_hours(start_h),
                SimDuration::from_hours(24),
            );
            any_refund |= out.teardown_refunds > 0.0;
        }
        assert!(
            any_refund,
            "volatile markets should occasionally evict idling teardown allocations"
        );
    }
}
