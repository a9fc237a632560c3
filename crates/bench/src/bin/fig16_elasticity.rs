//! Fig. 16 — Elasticity timeline: AgileML starts on 4 reliable
//! machines, incorporates 60 transient machines at iteration 11, and
//! loses them to eviction at iteration 35. Addition is disruption-free
//! (background preparation); eviction costs a ~13% one-iteration blip.
//!
//! This binary prints both the modelled series (performance shape) and
//! a live run of the real AgileML runtime through the same scenario at
//! laptop scale (functional behavior).
//!
//! ```text
//! cargo run --release -p proteus-bench --bin fig16_elasticity
//! ```

use proteus_agileml::{AgileConfig, AgileMlJob};
use proteus_bench::{bar, header};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_perfmodel::{elasticity_timeline, presets, ClusterSpec, Layout, TimelinePhase};
use proteus_simnet::NodeClass;

fn main() {
    header(
        "Fig. 16",
        "time-per-iteration: +60 transient at iter 11, eviction at iter 35 (MF)",
    );
    let series = elasticity_timeline(
        ClusterSpec::cluster_a(),
        presets::mf_netflix_rank1000(),
        &[
            TimelinePhase {
                layout: Layout::Traditional { machines: 4 },
                iterations: 10,
                entry_blip: 0.0,
            },
            TimelinePhase {
                layout: Layout::Stage2 {
                    reliable: 4,
                    transient: 60,
                    active_ps: 32,
                },
                iterations: 24,
                entry_blip: 0.0,
            },
            TimelinePhase {
                layout: Layout::Traditional { machines: 4 },
                iterations: 11,
                entry_blip: 0.13,
            },
        ],
    );
    let max = series.iter().copied().fold(0.0, f64::max);
    println!("{:>6} {:>10}  bar", "iter", "sec/iter");
    for (i, t) in series.iter().enumerate() {
        println!("{:>6} {:>10.2}  {}", i + 1, t, bar(*t, max));
    }
    println!(
        "\neviction blip: iteration 35 runs {:.0}% over steady state (paper: 13%)",
        100.0 * (series[34] / series[35] - 1.0)
    );

    // Functional replay at laptop scale: real messages, real protocol.
    println!("\nlive replay (1 reliable + 2 transient -> +4 -> evict 4), real runtime:");
    let data = netflix_like(
        &MfDataConfig {
            rows: 40,
            cols: 30,
            true_rank: 3,
            observed: 800,
            noise: 0.02,
        },
        16,
    );
    let app = MatrixFactorization::new(MfConfig {
        rows: 40,
        cols: 30,
        rank: 4,
        learning_rate: 0.05,
        reg: 1e-4,
        init_scale: 0.2,
    });
    let cfg = AgileConfig {
        partitions: 4,
        data_blocks: 8,
        seed: 16,
        ..AgileConfig::default()
    };
    let run = || -> Result<(), String> {
        let mut job = AgileMlJob::launch(app.clone(), data.clone(), cfg, 1, 2)?;
        job.wait_clock(10)?;
        let o1 = job.objective(&data)?;
        let added = job.add_machines(NodeClass::Transient, 4)?;
        job.wait_clock(34)?;
        let o2 = job.objective(&data)?;
        job.evict_with_warning(&added)?;
        job.wait_clock(45)?;
        let o3 = job.objective(&data)?;
        println!("  objective: iter10 {o1:.4} -> iter34 {o2:.4} -> iter45 {o3:.4} (monotone progress through add+evict)");
        job.shutdown().map_err(String::from)
    };
    run().expect("live replay succeeds");
}
