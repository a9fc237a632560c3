//! The chaos harness the AgileML chaos suites share: the job every
//! scenario perturbs, the seed sweep and its fault-free oracle.
//!
//! Each run prints `chaos: scenario=<name> seed=<seed>` *before* doing
//! anything, so a failure in CI is reproducible from the printed seed
//! alone: `PROTEUS_CHAOS_SEEDS=<seed> cargo test -p proteus-agileml
//! --test <suite> <name>`. `PROTEUS_CHAOS_FULL=1` widens the sweep.

use std::collections::BTreeMap;
use std::sync::Mutex;

use proteus_agileml::{AgileConfig, AgileMlJob, JobError, Stage};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig, Rating};

/// Clock every scenario trains to before judging the objective.
pub const TARGET: u64 = 20;

pub fn mf_app() -> MatrixFactorization {
    MatrixFactorization::new(MfConfig {
        rows: 30,
        cols: 20,
        rank: 3,
        learning_rate: 0.05,
        reg: 1e-4,
        init_scale: 0.2,
    })
}

pub fn mf_data() -> Vec<Rating> {
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

/// The canonical chaos shape: stage 2 with every transient node hosting
/// an ActivePS, so storms can revoke 100% of the serving tier at once
/// and a pre-drain always has partitions to move.
pub fn chaos_cfg(model_seed: u64) -> AgileConfig {
    AgileConfig {
        slack: 1,
        partitions: 4,
        data_blocks: 8,
        activeps_fraction: 1.0,
        force_stage: Some(Stage::Stage2),
        seed: model_seed,
        ..AgileConfig::default()
    }
}

/// Seeds to sweep. Chaos seeds double as model seeds so the fault-free
/// baseline for a seed is the exact job the faulted run perturbs.
fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("PROTEUS_CHAOS_SEEDS") {
        return s.split(',').filter_map(|t| t.trim().parse().ok()).collect();
    }
    if std::env::var("PROTEUS_CHAOS_FULL").is_ok() {
        return vec![3, 5, 7, 11, 13, 17, 19, 23];
    }
    vec![3, 11]
}

/// Fault-free objective for `chaos_cfg(seed)` at [`TARGET`] on
/// `reliable` reliable and three transient machines, cached per seed and
/// shape across scenarios.
fn baseline(seed: u64, reliable: usize) -> f64 {
    static CACHE: Mutex<BTreeMap<(u64, usize), f64>> = Mutex::new(BTreeMap::new());
    if let Some(v) = CACHE.lock().unwrap().get(&(seed, reliable)) {
        return *v;
    }
    let data = mf_data();
    let mut job = AgileMlJob::launch(mf_app(), data.clone(), chaos_cfg(seed), reliable, 3)
        .expect("baseline launch");
    job.wait_clock(TARGET).expect("baseline progress");
    let obj = job.objective(&data).expect("baseline objective");
    job.shutdown().expect("baseline shutdown");
    CACHE.lock().unwrap().insert((seed, reliable), obj);
    obj
}

fn assert_converged(name: &str, seed: u64, reliable: usize, obj: f64) {
    let base = baseline(seed, reliable);
    let bar = (2.0 * base).max(0.15);
    assert!(
        obj <= bar,
        "chaos: scenario={name} seed={seed}: objective {obj} above fault-free bar {bar} \
         (baseline {base})"
    );
}

/// Runs `scenario` across the seed sweep, judging each objective against
/// the fault-free run on `reliable` reliable machines. `hard` scenarios
/// must recover and converge; soft ones may instead surface any typed
/// [`JobError`] (the no-panic contract is enforced by the test harness
/// itself, and the session layer's restart path picks such errors up).
pub fn sweep(
    name: &str,
    hard: bool,
    reliable: usize,
    scenario: impl Fn(u64) -> Result<f64, JobError>,
) {
    for seed in seeds() {
        println!("chaos: scenario={name} seed={seed}");
        match scenario(seed) {
            Ok(obj) => assert_converged(name, seed, reliable, obj),
            Err(e) if !hard => {
                println!("chaos: scenario={name} seed={seed} surfaced typed error: {e}");
            }
            Err(e) => panic!("chaos: scenario={name} seed={seed}: expected recovery, got: {e}"),
        }
    }
}
