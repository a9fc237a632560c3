//! Byte-for-byte fingerprints of every elasticity transition.
//!
//! The chaos suites assert convergence-or-typed-error; this file is the
//! gate for "the controller sends the same messages in the same order".
//! A job on the discrete-event core is a pure function of its inputs
//! and the calls made on it, so each scripted scenario below pins
//!
//! * the whole `events()` sequence, rendered compactly,
//! * the controller's final `status()`,
//! * `net_stats()` (messages delivered and dropped),
//! * an FNV-1a of `traffic_matrix()` (who sent how many to whom), and
//! * the FNV-1a of a final `snapshot()` — float addition is not
//!   associative, so the model bits move when any update is applied in
//!   a different order.
//!
//! The constants were recorded on the commit *before*
//! `controller.rs` was split into `controller/` over one placement
//! layer; the split must reproduce them. The one exception is
//! `forced_stage_without_a_transient_machine`, which panicked the
//! controller on that commit and is recorded as new.

use std::collections::BTreeMap;

use proteus_agileml::{AgileConfig, AgileMlJob, JobError, JobEvent, Stage};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig, Rating};
use proteus_ps::{DenseVec, ParamKey};
use proteus_simnet::{NodeClass, NodeId};

type Job = AgileMlJob<MatrixFactorization>;

fn mf_app() -> MatrixFactorization {
    MatrixFactorization::new(MfConfig {
        rows: 30,
        cols: 20,
        rank: 3,
        learning_rate: 0.05,
        reg: 1e-4,
        init_scale: 0.2,
    })
}

fn mf_data() -> Vec<Rating> {
    netflix_like(
        &MfDataConfig {
            rows: 30,
            cols: 20,
            true_rank: 2,
            observed: 500,
            noise: 0.02,
        },
        3,
    )
}

/// The paper's policy: stage from the transient:reliable ratio, half
/// the transient machines host an ActivePS.
fn by_ratio() -> AgileConfig {
    AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 5,
        ..AgileConfig::default()
    }
}

/// The chaos suites' shape: stage 2 pinned, every transient machine an
/// ActivePS host, one clock of slack.
fn all_active() -> AgileConfig {
    AgileConfig {
        slack: 1,
        activeps_fraction: 1.0,
        force_stage: Some(Stage::Stage2),
        ..by_ratio()
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h = (*h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn model_hash(model: &BTreeMap<ParamKey, DenseVec>) -> u64 {
    let mut h = FNV_OFFSET;
    for (k, row) in model {
        fnv(&mut h, &k.0.to_le_bytes());
        fnv(&mut h, &(row.as_slice().len() as u64).to_le_bytes());
        for x in row.as_slice() {
            fnv(&mut h, &x.to_bits().to_le_bytes());
        }
    }
    h
}

fn traffic_hash(matrix: &[((NodeId, NodeId), u64)]) -> u64 {
    let mut h = FNV_OFFSET;
    for ((from, to), count) in matrix {
        fnv(&mut h, &from.0.to_le_bytes());
        fnv(&mut h, &to.0.to_le_bytes());
        fnv(&mut h, &count.to_le_bytes());
    }
    h
}

fn ids(nodes: &[NodeId]) -> String {
    let ids: Vec<String> = nodes.iter().map(|n| n.0.to_string()).collect();
    format!("[{}]", ids.join(","))
}

fn render(e: &JobEvent) -> String {
    match e {
        JobEvent::Started { nodes } => format!("start({nodes})"),
        JobEvent::ClockAdvanced { min } => format!("c{min}"),
        JobEvent::StageChanged { from, to } => format!("{from:?}>{to:?}"),
        JobEvent::NodesAdded { nodes } => format!("added{}", ids(nodes)),
        JobEvent::NodesEvicted { nodes } => format!("evicted{}", ids(nodes)),
        JobEvent::NodesPreDrained { nodes, partitions } => {
            format!("predrained{}x{partitions}", ids(nodes))
        }
        JobEvent::ReliableRepaired { nodes, partitions } => {
            format!("repaired{}x{partitions}", ids(nodes))
        }
        JobEvent::NodesFailedRecovered {
            nodes,
            rolled_back_to,
        } => format!("recovered{}@{rolled_back_to}", ids(nodes)),
        other => format!("{other:?}"),
    }
}

/// Trains `clocks` more clocks from wherever the job stands.
fn train(job: &mut Job, clocks: u64) -> Result<(), JobError> {
    let now = job.status()?.min_clock;
    job.wait_clock(now + clocks)
}

/// Everything the scenario pins, taken at the end of its script.
fn fingerprint(mut job: Job) -> Result<String, JobError> {
    let snap = job.snapshot()?;
    let st = job.status()?;
    let net = job.net_stats();
    let traffic = traffic_hash(&job.traffic_matrix());
    let events: Vec<String> = job.events().iter().map(render).collect();
    job.shutdown()?;
    Ok(format!(
        "events: {}\n\
         status: {:?} reliable={} transient={} active_ps={} workers={} clock={}\n\
         net: messages={} dropped={} traffic={traffic:#018x}\n\
         model: {:#018x} keys={} clock={} epoch={}",
        events.join(" "),
        st.stage,
        st.reliable,
        st.transient,
        st.active_ps,
        st.workers,
        st.min_clock,
        net.messages,
        net.dropped,
        model_hash(&snap.params),
        snap.params.len(),
        snap.clock,
        snap.epoch,
    ))
}

fn check(name: &str, scenario: fn() -> Result<String, JobError>, recorded: &str) {
    let got = scenario().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        got, recorded,
        "{name}: the transition no longer replays what was recorded"
    );
}

// ---------------------------------------------------------------------
// Scenarios. Machines are numbered from 1 in spawn order, reliable
// first; node 0 is the controller.
// ---------------------------------------------------------------------

/// One reliable machine grows through every stage: 1:1 is stage 1, 3:1
/// stage 2, and (threshold lowered from the paper's 15 to keep the
/// cluster small) 4:1 stage 3.
fn grow_through_the_stages() -> Result<String, JobError> {
    let cfg = AgileConfig {
        stage3_threshold: 3.0,
        ..by_ratio()
    };
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), cfg, 1, 1)?;
    train(&mut job, 2)?;
    job.add_machines(NodeClass::Transient, 2)?;
    train(&mut job, 2)?;
    job.add_machines(NodeClass::Transient, 1)?;
    train(&mut job, 2)?;
    fingerprint(job)
}

/// Warned evictions of ActivePS hosts that leave the job in stage 2:
/// the first two victims' partitions go to a transient machine without
/// an ActivePS, the third's merge into the last surviving host.
fn partial_warned_evictions_of_active_hosts() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), by_ratio(), 1, 5)?;
    train(&mut job, 4)?;
    for victim in [2, 3, 4] {
        job.evict_with_warning(&[NodeId(victim)])?;
        train(&mut job, 2)?;
    }
    fingerprint(job)
}

/// A storm takes every transient machine at once: the ActivePSs drain
/// to their backups and the job falls back to stage 1 although stage 2
/// is forced.
fn eviction_storm_back_to_stage_one() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), all_active(), 1, 3)?;
    train(&mut job, 6)?;
    job.evict_with_warning(&[NodeId(2), NodeId(3), NodeId(4)])?;
    train(&mut job, 3)?;
    fingerprint(job)
}

/// A forecast demotes one host (its partitions merge into another
/// ActivePS), the eviction it predicted lands on a machine that serves
/// nothing, and a second alert over every remaining host drains them
/// all to the reliable copies.
fn pre_drain_then_the_eviction_it_predicted() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), all_active(), 1, 3)?;
    train(&mut job, 6)?;
    job.pre_drain(&[NodeId(2)])?;
    train(&mut job, 2)?;
    job.evict_with_warning(&[NodeId(2)])?;
    train(&mut job, 2)?;
    job.pre_drain(&[NodeId(3), NodeId(4)])?;
    train(&mut job, 2)?;
    fingerprint(job)
}

/// Three unwarned ActivePS deaths, each a rollback: the first victim's
/// partitions recover onto the transient machine without an ActivePS,
/// the second's onto the surviving host, and the third leaves no
/// transient machine, so the backups are promoted and the job runs on
/// in stage 1.
fn unwarned_failures_with_rollback() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), by_ratio(), 1, 3)?;
    train(&mut job, 8)?;
    for victim in [2, 3, 4] {
        job.fail_nodes(&[NodeId(victim)])?;
        train(&mut job, 3)?;
    }
    fingerprint(job)
}

/// The dead machine ran a worker and nothing else: its data blocks
/// fall back and nobody rolls back.
fn workers_only_failure() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), by_ratio(), 1, 4)?;
    train(&mut job, 4)?;
    job.fail_nodes(&[NodeId(5)])?;
    train(&mut job, 3)?;
    fingerprint(job)
}

/// One of three reliable machines dies; its backup partitions are
/// re-replicated from the live ActivePSs without a restart.
fn reliable_kill_repaired_in_job() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), all_active(), 3, 3)?;
    train(&mut job, 8)?;
    job.fail_nodes(&[NodeId(3)])?;
    train(&mut job, 4)?;
    fingerprint(job)
}

/// A warned reliable machine hands over while it is still alive: in
/// stage 2 its backup partitions re-replicate out of its own store.
fn warned_reliable_drain() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), all_active(), 3, 3)?;
    train(&mut job, 8)?;
    job.evict_with_warning(&[NodeId(3)])?;
    train(&mut job, 4)?;
    fingerprint(job)
}

/// The same warning in stage 1, where the victim is a ParamServ: its
/// serving partitions migrate to the other reliable machine.
fn warned_reliable_drain_of_a_param_server() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), by_ratio(), 2, 1)?;
    train(&mut job, 4)?;
    job.evict_with_warning(&[NodeId(2)])?;
    train(&mut job, 4)?;
    fingerprint(job)
}

/// A machine about to become an ActivePS host dies silently, so the
/// addition that hands it partitions waits for a `Ready` that never
/// comes (the wait gives up when the queue runs dry). The failure
/// report then arrives *while the add is pending*: the controller must
/// stop waiting on the corpse, finish the add, and only then run the
/// queued rollback — without making the corpse an owner again.
fn failure_reported_while_an_add_is_pending() -> Result<String, JobError> {
    let cfg = AgileConfig {
        activeps_fraction: 0.5,
        ..all_active()
    };
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), cfg, 1, 3)?;
    train(&mut job, 4)?;
    // Nodes 2 and 3 host the ActivePSs; two more transient machines
    // raise the target to three hosts and node 4 is next in line.
    job.kill_silent(&[NodeId(4)]);
    match job.add_machines(NodeClass::Transient, 2) {
        Err(JobError::Stalled { .. }) => {}
        other => panic!("the add should wedge on the dead host, got {other:?}"),
    }
    job.fail_nodes(&[NodeId(4)])?;
    train(&mut job, 3)?;
    fingerprint(job)
}

/// Stage 2 is forced but the job launches on reliable machines alone,
/// as every `Proteus` session does: stage 1 until the first transient
/// machines join, the forced stage from then on.
fn forced_stage_without_a_transient_machine() -> Result<String, JobError> {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), all_active(), 2, 0)?;
    train(&mut job, 2)?;
    job.add_machines(NodeClass::Transient, 2)?;
    train(&mut job, 3)?;
    fingerprint(job)
}

#[test]
fn grow_through_the_stages_replays() {
    check(
        "grow_through_the_stages",
        grow_through_the_stages,
        GROW_THROUGH_THE_STAGES,
    );
}

#[test]
fn partial_warned_evictions_of_active_hosts_replay() {
    check(
        "partial_warned_evictions_of_active_hosts",
        partial_warned_evictions_of_active_hosts,
        PARTIAL_WARNED_EVICTIONS,
    );
}

#[test]
fn eviction_storm_back_to_stage_one_replays() {
    check(
        "eviction_storm_back_to_stage_one",
        eviction_storm_back_to_stage_one,
        EVICTION_STORM,
    );
}

#[test]
fn pre_drain_then_the_eviction_it_predicted_replays() {
    check(
        "pre_drain_then_the_eviction_it_predicted",
        pre_drain_then_the_eviction_it_predicted,
        PRE_DRAIN_THEN_EVICTION,
    );
}

#[test]
fn unwarned_failures_with_rollback_replay() {
    check(
        "unwarned_failures_with_rollback",
        unwarned_failures_with_rollback,
        UNWARNED_FAILURES,
    );
}

#[test]
fn workers_only_failure_replays() {
    check(
        "workers_only_failure",
        workers_only_failure,
        WORKERS_ONLY_FAILURE,
    );
}

#[test]
fn reliable_kill_repaired_in_job_replays() {
    check(
        "reliable_kill_repaired_in_job",
        reliable_kill_repaired_in_job,
        RELIABLE_KILL_REPAIRED,
    );
}

#[test]
fn warned_reliable_drain_replays() {
    check(
        "warned_reliable_drain",
        warned_reliable_drain,
        WARNED_RELIABLE_DRAIN,
    );
}

#[test]
fn warned_reliable_drain_of_a_param_server_replays() {
    check(
        "warned_reliable_drain_of_a_param_server",
        warned_reliable_drain_of_a_param_server,
        WARNED_PARAM_SERVER_DRAIN,
    );
}

#[test]
fn failure_reported_while_an_add_is_pending_replays() {
    check(
        "failure_reported_while_an_add_is_pending",
        failure_reported_while_an_add_is_pending,
        FAILURE_WHILE_ADD_PENDING,
    );
}

#[test]
fn forced_stage_without_a_transient_machine_replays() {
    check(
        "forced_stage_without_a_transient_machine",
        forced_stage_without_a_transient_machine,
        FORCED_STAGE_WITHOUT_TRANSIENT,
    );
}

const GROW_THROUGH_THE_STAGES: &str = "\
    events: start(2) c1 c2 Stage1>Stage2 added[3,4] c3 c4 Stage2>Stage3 added[5] c5 c6 c7\n\
    status: Stage3 reliable=1 transient=4 active_ps=2 workers=4 clock=7\n\
    net: messages=355 dropped=0 traffic=0xd481b61f30a09caa\n\
    model: 0xad193f7738a8fdf0 keys=50 clock=6 epoch=0";
const PARTIAL_WARNED_EVICTIONS: &str = "\
    events: start(6) c1 c2 c3 c4 evicted[2] c5 c6 evicted[3] c7 c8 evicted[4] c9 c10 c11\n\
    status: Stage2 reliable=1 transient=2 active_ps=2 workers=3 clock=11\n\
    net: messages=805 dropped=21 traffic=0x4728a7654e2c2aa0\n\
    model: 0x1ac301d462a7f674 keys=50 clock=10 epoch=0";
const EVICTION_STORM: &str = "\
    events: start(4) c1 c2 c3 c4 c5 c6 Stage2>Stage1 evicted[2,3,4] c7 c8 c9 c10 c11 c12\n\
    status: Stage1 reliable=1 transient=0 active_ps=0 workers=1 clock=12\n\
    net: messages=441 dropped=28 traffic=0x944f4dc5fb7ebea2\n\
    model: 0x39d35974deea67a9 keys=50 clock=11 epoch=0";
const PRE_DRAIN_THEN_EVICTION: &str = "\
    events: start(4) c1 c2 c3 c4 c5 c6 predrained[2]x2 c7 c8 c9 evicted[2] c10 c11 c12 predrained[3,4]x4 c13 c14 c15 c16 c17\n\
    status: Stage2 reliable=1 transient=2 active_ps=0 workers=3 clock=17\n\
    net: messages=857 dropped=2 traffic=0x9e76a1193d0d444e\n\
    model: 0xef93025403f658ed keys=50 clock=16 epoch=0";
const UNWARNED_FAILURES: &str = "\
    events: start(4) c1 c2 c3 c4 c5 c6 c7 c8 recovered[2]@7 c8 c9 c10 recovered[3]@9 c10 c11 c12 c13 Stage2>Stage1 recovered[4]@11 c12 c13 c14 c15\n\
    status: Stage1 reliable=1 transient=0 active_ps=0 workers=1 clock=15\n\
    net: messages=670 dropped=28 traffic=0xbf3048721110fc27\n\
    model: 0xe74b7a5fad9aa537 keys=50 clock=14 epoch=3";
const WORKERS_ONLY_FAILURE: &str = "\
    events: start(5) c1 c2 c3 c4 recovered[5]@4 c5 c6 c7 c8\n\
    status: Stage2 reliable=1 transient=3 active_ps=2 workers=4 clock=8\n\
    net: messages=467 dropped=1 traffic=0xf7dcda6a7a5fd332\n\
    model: 0xe210b9366a0ef3ae keys=50 clock=7 epoch=0";
const RELIABLE_KILL_REPAIRED: &str = "\
    events: start(6) c1 c2 c3 c4 c5 c6 c7 c8 c9 repaired[3]x1 c10 c11 c12 c13 c14 c15 c16\n\
    status: Stage2 reliable=2 transient=3 active_ps=3 workers=5 clock=16\n\
    net: messages=1237 dropped=5 traffic=0xf6f6c6157320869a\n\
    model: 0xb94849e3ddbcf7d7 keys=50 clock=15 epoch=0";
const WARNED_RELIABLE_DRAIN: &str = "\
    events: start(6) c1 c2 c3 c4 c5 c6 c7 c8 evicted[3] c9 repaired[3]x1 c10 c11 c12 c13 c14 c15\n\
    status: Stage2 reliable=2 transient=3 active_ps=3 workers=5 clock=15\n\
    net: messages=1186 dropped=4 traffic=0x112f652531434f30\n\
    model: 0x924f0008d224954d keys=50 clock=14 epoch=0";
const WARNED_PARAM_SERVER_DRAIN: &str = "\
    events: start(3) c1 c2 c3 c4 evicted[2] repaired[2]x0 c5 c6 c7 c8 c9\n\
    status: Stage1 reliable=1 transient=1 active_ps=0 workers=2 clock=9\n\
    net: messages=251 dropped=4 traffic=0x01f1ac7b2de3f01c\n\
    model: 0xf58bbf427e8c17e3 keys=50 clock=8 epoch=0";
const FAILURE_WHILE_ADD_PENDING: &str = "\
    events: start(4) c1 c2 c3 c4 added[5,6] recovered[4]@4 c5 c6 c7 c8 c9\n\
    status: Stage2 reliable=1 transient=4 active_ps=3 workers=5 clock=9\n\
    net: messages=688 dropped=18 traffic=0xeb2a2639af0e0dd1\n\
    model: 0x76cc40ab9e0614e4 keys=50 clock=8 epoch=1";
const FORCED_STAGE_WITHOUT_TRANSIENT: &str = "\
    events: start(2) c1 c2 Stage1>Stage2 added[3,4] c3 c4 c5 c6 c7\n\
    status: Stage2 reliable=2 transient=2 active_ps=2 workers=4 clock=7\n\
    net: messages=330 dropped=0 traffic=0xf04e93efa02d3787\n\
    model: 0x349053f4cc610f5b keys=50 clock=6 epoch=0";
