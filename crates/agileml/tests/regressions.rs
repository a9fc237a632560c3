//! Named regressions: defects the thread core's timing hid, and job
//! shapes that once could not start.
//!
//! On the discrete-event core nothing runs between driver calls, so
//! the scripts below are deterministic: each either always passes or
//! always fails.

use proteus_agileml::{AgileConfig, AgileMlJob, JobEvent, Stage};
use proteus_mlapps::data::{imagenet_like, MlrDataConfig};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig, Rating};
use proteus_mlapps::mlr::{Mlr, MlrConfig};
use proteus_mlapps::MlApp;
use proteus_simnet::{NodeClass, NodeId};

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

fn cfg() -> AgileConfig {
    AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 5,
        ..AgileConfig::default()
    }
}

/// A clock reached before a rollback must not satisfy a later
/// `wait_clock`: the job is no longer there. The old wait scanned the
/// whole event log for *any* `ClockAdvanced ≥ clock` and returned at
/// once, with the controller's own clock still behind the target.
#[test]
fn wait_clock_ignores_clocks_from_before_a_rollback() {
    // 1 reliable + 3 transient under the default policy: stage 2, two
    // ActivePS hosts (the two longest-running transient machines).
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), cfg(), 1, 3).expect("launch");
    job.wait_clock(8).expect("eight clocks");
    // The host dies before it pushes clock 8 to its backup, so the job
    // resumes from an earlier clock.
    let rolled = job.fail_nodes(&[NodeId(2)]).expect("rollback recovery");
    assert!(rolled < 8, "the failure must cost work, rolled to {rolled}");
    assert_eq!(job.status().expect("status").min_clock, rolled);

    job.wait_clock(8).expect("eight clocks again");
    let now = job.status().expect("status").min_clock;
    assert!(
        now >= 8,
        "wait_clock(8) returned with the job at clock {now}: satisfied by history"
    );
    job.shutdown().expect("shutdown");
}

/// A machine added right behind a warned eviction of an ActivePS host,
/// under the default stage policy. The eviction leaves the victim's
/// partitions migrating; the addition then re-places partitions over
/// the new host set and must never leave a node waiting for an image
/// nobody will send.
#[test]
fn add_right_behind_a_warned_eviction_of_an_active_host_completes() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 4).expect("launch");
    assert_eq!(job.status().expect("status").stage, Stage::Stage2);
    job.wait_clock(4).expect("progress");

    // Node 2 is the longest-running transient machine: an ActivePS host.
    job.evict_with_warning(&[NodeId(2)])
        .expect("warned eviction");
    let added = job
        .add_machines(NodeClass::Transient, 1)
        .expect("the addition must not wait on the eviction's migration forever");
    let clock = job.status().expect("status").min_clock;
    job.wait_clock(clock + 2)
        .expect("two clocks with the new machine");

    // Nothing was lost on the way: every parameter is still served.
    let snap = job.snapshot().expect("snapshot");
    assert_eq!(snap.params.len() as u64, mf_app().key_count());
    assert!(job
        .events()
        .iter()
        .any(|e| matches!(e, JobEvent::NodesAdded { nodes } if *nodes == added)));
    job.shutdown().expect("shutdown");
}

/// The root cause behind the add that timed out (about one calm session
/// in six on the thread core): a `Configure` used to *replace* a node's
/// set of awaited partition images, forgetting the ones a previous
/// reconfiguration had left in flight. Told to hand such a partition on,
/// the node then exported a store it had never received — an empty
/// image — and, asked to stop, stopped at once instead of waiting to
/// relay, so the real image died at its door and whoever was next in
/// the chain waited for it forever.
///
/// Three provider warnings reach the controller in one batch: node 2's
/// eviction sends its partitions to node 5; node 3's reconfigures the
/// survivors (node 5 among them, with nothing new to await); node 5's
/// moves the partitions it is still waiting for on to node 7.
#[test]
fn a_reconfiguration_keeps_awaiting_images_still_in_flight() {
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), cfg(), 1, 6).expect("launch");
    job.wait_clock(4).expect("progress");
    let before = job.objective(&data).expect("objective");

    for victim in [2, 3, 5] {
        job.warn_only(&[NodeId(victim)], 120_000).expect("warning");
    }
    let mut gone = Vec::new();
    job.wait_event(
        |e| {
            if let JobEvent::NodesEvicted { nodes } = e {
                gone.extend(nodes.iter().copied());
            }
            gone.len() == 3
        },
        "three drains",
    )
    .expect("all three evicted");
    assert_eq!(job.status().expect("status").stage, Stage::Stage2);

    // Judged right away: a lost partition re-materialises from later
    // updates and is re-learnt within a few clocks, but at this point
    // half the model would be gone and the objective far above where
    // four clocks of training had brought it.
    let snap = job.snapshot().expect("snapshot");
    assert_eq!(
        snap.params.len() as u64,
        mf_app().key_count(),
        "a partition was handed on before its image had arrived"
    );
    let after = job.objective(&data).expect("objective");
    assert!(
        after <= before * 1.05,
        "the drains lost model state: objective {before} -> {after}"
    );
    let clock = job.status().expect("status").min_clock;
    job.wait_clock(clock + 2).expect("training continues");
    job.shutdown().expect("shutdown");
}

/// A forced stage 2 with no transient machine to host an ActivePS: the
/// guard "nothing can host an ActivePS, serve from the reliable tier"
/// used to live only in the eviction handler, so the same membership
/// reached at launch panicked the controller ("cannot place partitions
/// on zero nodes") — and a `Proteus` session always launches with zero
/// transient machines. The job now starts in stage 1 exactly as it ends
/// up there after an eviction storm, and flips to the forced stage when
/// the first transient machines join.
#[test]
fn forced_stage_without_a_transient_machine_starts_in_stage_one() {
    let forced = AgileConfig {
        force_stage: Some(Stage::Stage2),
        ..cfg()
    };
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), forced, 2, 0).expect("launch");
    assert_eq!(job.status().expect("status").stage, Stage::Stage1);
    job.wait_clock(2).expect("two clocks in stage 1");

    job.add_machines(NodeClass::Transient, 2).expect("grow");
    assert!(job.events().contains(&JobEvent::StageChanged {
        from: Stage::Stage1,
        to: Stage::Stage2,
    }));
    let status = job.status().expect("status");
    assert_eq!((status.stage, status.active_ps), (Stage::Stage2, 1));
    job.wait_clock(4).expect("training continues in stage 2");
    job.shutdown().expect("shutdown");
}

/// A model of fewer keys than partitions: the initial images were built
/// from the keys alone, so a partition no key maps to got no install,
/// its holders awaited one forever and the launch timed out waiting for
/// the job start. The rollback recovery path has no such gap (each
/// backup exports every partition it is named, empty ones too), which
/// the failure below walks through.
#[test]
fn a_job_with_more_partitions_than_keys_starts_and_recovers() {
    let (dim, classes) = (8, 4);
    let data = imagenet_like(
        &MlrDataConfig {
            examples: 200,
            dim,
            classes,
            separation: 2.0,
            noise: 0.4,
        },
        5,
    );
    let app = Mlr::new(MlrConfig {
        dim,
        classes,
        learning_rate: 0.1,
        reg: 1e-4,
    });
    let cfg = AgileConfig {
        partitions: 8,
        ..cfg()
    };
    let keys = app.key_count();
    let mut job = AgileMlJob::launch(app, data, cfg, 1, 3).expect("launch");
    job.wait_clock(2).expect("two clocks");

    let rolled = job.fail_nodes(&[NodeId(2)]).expect("rollback recovery");
    job.wait_clock(rolled + 2).expect("training resumes");
    let snap = job.snapshot().expect("snapshot");
    assert_eq!(snap.params.len() as u64, keys);
    job.shutdown().expect("shutdown");
}

/// More workers than data blocks: a worker that holds no block never
/// starts an iteration, so it must not hold the minimum clock back.
/// 3 reliable + 7 transient machines over 8 blocks run in stage 2; an
/// addition hands blocks to none of the new workers, and a warned
/// eviction of those takes none away.
#[test]
fn more_workers_than_data_blocks_train_through_an_add_and_an_eviction() {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), cfg(), 3, 7).expect("launch");
    assert_eq!(job.status().expect("status").stage, Stage::Stage2);
    job.wait_clock(4).expect("four clocks");
    let added = job.add_machines(NodeClass::Transient, 2).expect("addition");
    job.wait_clock(8).expect("eight clocks");
    job.evict_with_warning(&added).expect("eviction");
    job.wait_clock(12).expect("twelve clocks");
    job.shutdown().expect("shutdown");
}

/// The same shape in stage 3: 1 reliable + 20 transient machines, 20
/// workers, 8 blocks. When a worker holding a block fails, its block
/// falls to a worker that held none, which from then on is waited on.
#[test]
fn more_workers_than_data_blocks_train_in_stage3() {
    let mut job = AgileMlJob::launch(mf_app(), mf_data(), cfg(), 1, 20).expect("launch");
    assert_eq!(job.status().expect("status").stage, Stage::Stage3);
    job.wait_clock(4).expect("four clocks");
    // The eight block holders are what the clock waits on.
    assert_eq!(job.status().expect("status").workers, 8);
    // Node 6 works and hosts no ActivePS: a failure without rollback.
    assert_eq!(job.fail_nodes(&[NodeId(6)]).expect("recovery"), 4);
    assert_eq!(job.status().expect("status").workers, 8);
    job.wait_clock(8).expect("eight clocks");
    job.shutdown().expect("shutdown");
}
