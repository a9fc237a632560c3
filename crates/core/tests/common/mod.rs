//! What the session suites share: the MF job they train and the
//! report ⇄ export cross-check.

use std::collections::BTreeSet;

use proteus::obs::{Event, MarketEvent, SessionEvent, Timeline};
use proteus::simtime::{SimDuration, SimTime};
use proteus::ProteusReport;
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig, Rating};

/// An MF training job: a `rows × cols` model at `rank`, fitted to
/// `observed` Netflix-like ratings of a rank-`rank - 1` truth drawn from
/// `seed`.
pub struct MfJob {
    pub rows: u32,
    pub cols: u32,
    pub rank: usize,
    pub observed: usize,
    pub seed: u64,
}

impl MfJob {
    pub fn app(&self) -> MatrixFactorization {
        MatrixFactorization::new(MfConfig {
            rows: self.rows,
            cols: self.cols,
            rank: self.rank,
            learning_rate: 0.05,
            reg: 1e-4,
            init_scale: 0.2,
        })
    }

    pub fn data(&self) -> Vec<Rating> {
        netflix_like(
            &MfDataConfig {
                rows: self.rows,
                cols: self.cols,
                true_rank: self.rank - 1,
                observed: self.observed,
                noise: 0.02,
            },
            self.seed,
        )
    }
}

/// Rebuilds every event-determined field of `report` from the session's
/// recorded `timeline` — counts and sums by event kind, independently of
/// the session's own fold — and asserts they agree.
pub fn assert_report_matches_export(report: &ProteusReport, timeline: &Timeline) {
    let count = |kind: &str| {
        let n = timeline.events.iter().filter(|e| e.event.kind() == kind);
        u32::try_from(n.count()).expect("count fits")
    };
    let mut degraded_time = SimDuration::ZERO;
    let mut degraded_since: Option<SimTime> = None;
    let mut fallbacks = BTreeSet::new();
    let mut on_demand = Vec::new();
    let mut work_lost_to_restart = 0;
    for e in &timeline.events {
        match &e.event {
            Event::Session(SessionEvent::Degraded) => degraded_since = Some(e.t),
            Event::Session(SessionEvent::Restored { degraded_ms }) => {
                degraded_since = None;
                degraded_time += SimDuration::from_millis(*degraded_ms);
            }
            Event::Session(SessionEvent::Finished { .. }) => {
                if let Some(since) = degraded_since.take() {
                    degraded_time += e.t.since(since);
                }
            }
            Event::Session(SessionEvent::FallbackLaunched { allocation }) => {
                fallbacks.insert(*allocation);
            }
            Event::Market(MarketEvent::OnDemandGranted {
                allocation, count, ..
            }) => on_demand.push((*allocation, *count)),
            Event::Session(SessionEvent::CheckpointRestored { work_lost, .. }) => {
                work_lost_to_restart += work_lost;
            }
            _ => {}
        }
    }
    // A fallback's size is on the on-demand grant its launch names.
    let fallback_on_demand: u64 = on_demand
        .iter()
        .filter(|(allocation, _)| fallbacks.contains(allocation))
        .map(|(_, count)| count)
        .sum();
    let rebuilt = ProteusReport {
        evictions: count("market.evicted"),
        allocations: count("market.spot_granted"),
        refusals: count("market.capacity_refused"),
        throttles: count("market.throttled"),
        partial_grants: count("market.partial_grant"),
        degraded_time,
        fallback_on_demand: u32::try_from(fallback_on_demand).expect("fits"),
        forecast_alerts: count("bid.forecast_alert"),
        pre_drains: count("session.pre_drain"),
        forecast_hits: count("session.forecast_hit"),
        false_alerts: count("session.false_alert"),
        checkpoints: count("session.checkpoint"),
        reliable_failures: count("session.reliable_lost"),
        restarts: count("session.checkpoint_restored"),
        work_lost_to_restart,
        ..report.clone()
    };
    assert_eq!(&rebuilt, report, "the report disagrees with its export");
}
