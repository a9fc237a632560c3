//! Thread-count invariance of a whole elastic training job.
//!
//! The event core runs same-instant handlers of distinct machines on
//! the helper pool and commits what they sent in ascending
//! `(NodeId, send order)`, so everything observable about a job — the
//! model bits, the event log, the traffic counters, the fault verdicts —
//! must be the same at any `PROTEUS_THREADS` and on every run. The job
//! here is sized so that its `process` batches really are handed to the
//! pool (asserted below); committing outboxes in completion order
//! instead makes this test fail.

use std::sync::Arc;

use proteus_agileml::AgileMsg;
use proteus_agileml::{AgileConfig, AgileMlJob, JobEvent};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig, Rating};
use proteus_simnet::{FaultPlan, FaultRule, FaultStats, NetStats, NodeClass, NodeId};
use proteus_simtime::Pool;

const RATINGS: usize = 9_000;
const RANK: usize = 32;

fn app() -> MatrixFactorization {
    MatrixFactorization::new(MfConfig {
        rows: 200,
        cols: 150,
        rank: RANK,
        learning_rate: 0.02,
        reg: 1e-4,
        init_scale: 0.1,
    })
}

fn data() -> Vec<Rating> {
    netflix_like(
        &MfDataConfig {
            rows: 200,
            cols: 150,
            true_rank: 4,
            observed: RATINGS,
            noise: 0.05,
        },
        21,
    )
}

/// Duplicates and one-message reorders on traffic that tolerates both.
fn faults() -> FaultPlan<AgileMsg> {
    FaultPlan::new(77)
        .with_rule(FaultRule {
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.10,
            delay: 0.10,
            filter: Some(Arc::new(|m: &AgileMsg| {
                matches!(
                    m,
                    AgileMsg::Topology(_)
                        | AgileMsg::GlobalClock { .. }
                        | AgileMsg::ClockDone { .. }
                        | AgileMsg::Ready
                        | AgileMsg::ReadReq { .. }
                        | AgileMsg::ReadResp { .. }
                )
            })),
        })
        .with_rule(FaultRule {
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.15,
            filter: Some(Arc::new(|m: &AgileMsg| {
                matches!(m, AgileMsg::UpdateBatch { .. })
            })),
        })
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(key, value bits)` of the final model, with its clock and epoch.
    model: Vec<(u64, Vec<u32>)>,
    clock: u64,
    epoch: u64,
    events: Vec<JobEvent>,
    net: NetStats,
    traffic: Vec<((NodeId, NodeId), u64)>,
    faults: FaultStats,
}

/// Launch, 10 clocks, add 2, warned-evict 1, fail 1, 5 clocks.
fn run(faulted: bool) -> Outcome {
    let cfg = AgileConfig {
        seed: 9,
        ..AgileConfig::default()
    };
    let mut job = if faulted {
        AgileMlJob::launch_with_faults(app(), data(), cfg, 1, 3, faults())
    } else {
        AgileMlJob::launch(app(), data(), cfg, 1, 3)
    }
    .expect("launch");
    job.wait_clock(10).expect("ten clocks");
    let added = job.add_machines(NodeClass::Transient, 2).expect("add two");
    job.evict_with_warning(&[NodeId(2)]).expect("warned evict");
    let rolled = job.fail_nodes(&added[..1]).expect("fail one");
    job.wait_clock(rolled + 5).expect("five more clocks");

    let snap = job.snapshot().expect("snapshot");
    let outcome = Outcome {
        model: snap
            .params
            .iter()
            .map(|(k, v)| (k.0, v.as_slice().iter().map(|x| x.to_bits()).collect()))
            .collect(),
        clock: snap.clock,
        epoch: snap.epoch,
        events: job.events().to_vec(),
        net: job.net_stats(),
        traffic: job.traffic_matrix(),
        faults: job.fault_stats(),
    };
    job.shutdown().expect("shutdown");
    outcome
}

/// One test function, because the thread count is process-wide state.
#[test]
fn a_job_is_the_same_at_any_thread_count_and_on_every_run() {
    for faulted in [false, true] {
        std::env::set_var("PROTEUS_THREADS", "1");
        let serial = run(faulted);
        assert!(serial.events.len() > 15 && serial.net.messages > 500);
        assert_eq!(
            serial.faults != FaultStats::default(),
            faulted,
            "the plan must inject faults, and only the plan"
        );
        for threads in ["1", "2", "4", "2"] {
            std::env::set_var("PROTEUS_THREADS", threads);
            let again = run(faulted);
            assert!(
                again == serial,
                "faulted={faulted}: the run on {threads} thread(s) differs from the serial one"
            );
            assert_eq!(
                Pool::helpers_started() > 0,
                faulted || threads != "1",
                "the job's `process` batches must reach the pool, and only off one thread"
            );
        }
    }
    std::env::remove_var("PROTEUS_THREADS");
}
