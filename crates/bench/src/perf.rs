//! The AgileML stage figures (Figs. 11–16) and the ablations over the
//! same performance model: MF on Netflix rank 1000 (LDA for Fig. 15) on
//! the paper's Cluster-A.

use std::io;

use proteus_agileml::{AgileConfig, AgileMlJob};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_perfmodel::{
    elasticity_timeline, presets, scaling_curve, time_per_iteration, ClusterSpec, Layout,
    TimelinePhase,
};
use proteus_simnet::NodeClass;

use crate::{Out, Table};

const TRADITIONAL: &str = "Traditional (High Cost)";

/// Modelled seconds per MF iteration under `layout`.
fn mf(layout: Layout) -> f64 {
    let app = presets::mf_netflix_rank1000();
    time_per_iteration(ClusterSpec::cluster_a(), app, layout)
}

/// Modelled seconds of each MF iteration through `phases`.
fn mf_timeline(phases: &[(Layout, u32, f64)]) -> Vec<f64> {
    let phase = |&(layout, iterations, entry_blip)| TimelinePhase {
        layout,
        iterations,
        entry_blip,
    };
    let phases: Vec<TimelinePhase> = phases.iter().map(phase).collect();
    let app = presets::mf_netflix_rank1000();
    elasticity_timeline(ClusterSpec::cluster_a(), app, &phases)
}

fn stage1(reliable_ps: u32) -> f64 {
    let total = 64;
    mf(Layout::Stage1 { reliable_ps, total })
}

fn stage2(reliable: u32, transient: u32, active_ps: u32) -> Layout {
    Layout::Stage2 {
        reliable,
        transient,
        active_ps,
    }
}

fn stage3(reliable: u32, transient: u32, active_ps: u32) -> Layout {
    Layout::Stage3 {
        reliable,
        transient,
        active_ps,
    }
}

/// The `sec/iter` bar rows of Figs. 11–13, each closed by the
/// traditional all-reliable layout on the same 64 machines.
fn sec_per_iter(out: Out, mut rows: Vec<(String, f64)>) -> io::Result<(Vec<f64>, f64)> {
    let trad = mf(Layout::Traditional { machines: 64 });
    rows.push((TRADITIONAL.into(), trad));
    Table::new(out, "configuration:26|sec/iter:10.2|bar")?.bars(&rows)?;
    Ok((rows.into_iter().map(|(_, t)| t).collect(), trad))
}

/// Fig. 11 — stage 1 with 4–32 reliable ParamServ machines out of 64.
pub fn fig11(out: Out) -> io::Result<()> {
    let rows = [4u32, 16, 32].map(|ps| (format!("{ps} ParamServs"), stage1(ps)));
    let (secs, trad) = sec_per_iter(out, rows.into())?;
    writeln!(
        out,
        "\n4 ParamServs slow MF by {:.0}% relative to traditional (paper: over 85%)",
        100.0 * (1.0 - trad / secs[0])
    )
}

/// Fig. 12 — stage 2 with 4 reliable + 60 transient machines and
/// 16/32/48 ActivePSs, against stage 1 at the same ratio.
pub fn fig12(out: Out) -> io::Result<()> {
    let mut rows = vec![(format!("{:>2} ParamServs", 4), stage1(4))];
    for a in [16u32, 32, 48] {
        rows.push((format!("{a:>2} ActivePS"), mf(stage2(4, 60, a))));
    }
    let (secs, trad) = sec_per_iter(out, rows)?;
    writeln!(
        out,
        "\n32 ActivePSs at 15:1 run {:.0}% slower than traditional (paper: ~18%) — the straggler effect stage 3 removes",
        100.0 * (secs[2] / trad - 1.0)
    )
}

/// Fig. 13 — a 63:1 ratio with workers on the one reliable machine
/// (stage 2) and without (stage 3).
pub fn fig13(out: Out) -> io::Result<()> {
    let (s2, s3) = (mf(stage2(1, 63, 32)), mf(stage3(1, 63, 32)));
    let rows = vec![
        ("Workers on Reliable".into(), s2),
        ("No workers on Reliable".into(), s3),
    ];
    let (_, trad) = sec_per_iter(out, rows)?;
    writeln!(
        out,
        "\nstage 2 loses {:.1}x to traditional at 63:1 (paper: 2x); stage 3 is within {:.0}% (paper: matches)",
        s2 / trad,
        100.0 * (s3 / trad - 1.0).abs()
    )
}

/// Fig. 14 — 8 reliable + 8 transient machines in stage 2 versus stage
/// 3 mode: stage 2 is better at low transient-to-reliable ratios.
pub fn fig14(out: Out) -> io::Result<()> {
    let iterations = 40;
    let s2 = mf_timeline(&[(stage2(8, 8, 4), iterations, 0.0)]);
    let s3 = mf_timeline(&[(stage3(8, 8, 4), iterations, 0.0)]);
    let mut t = Table::new(out, "iter:6|stage2 s:12.2|stage3 s:12.2")?;
    for i in (0..iterations as usize).step_by(4) {
        t.row(&[&i, &s2[i], &s3[i]])?;
    }
    writeln!(
        out,
        "\nstage 2 mean {:.2}s vs stage 3 mean {:.2}s — stage 2 is {:.0}% faster at 1:1 (paper: stage 2 clearly best)",
        s2[0],
        s3[0],
        100.0 * (1.0 - s2[0] / s3[0])
    )
}

/// Fig. 15 — LDA time-per-iteration from 4 to 64 machines against the
/// ideal curve (perfect scaling of the 4-machine case).
pub fn fig15(out: Out) -> io::Result<()> {
    let machines = [4, 8, 16, 32, 64];
    let pts = scaling_curve(ClusterSpec::cluster_a(), presets::lda_nytimes(), &machines);
    let spec = "machines:10|AgileML s:12.1|ideal s:12.1|efficiency:12.0%";
    let mut table = Table::new(out, spec)?;
    for (m, t, ideal) in &pts {
        table.row(&[m, t, ideal, &(100.0 * ideal / t)])?;
    }
    let efficiency = pts.iter().map(|(_, t, ideal)| ideal / t);
    writeln!(
        out,
        "\nworst-case parallel efficiency {:.0}% across the sweep (paper: near-ideal scaling)",
        100.0 * efficiency.fold(1.0f64, f64::min)
    )
}

/// Fig. 16 — AgileML starts on 4 reliable machines, adds 60 transient
/// ones at iteration 11 (disruption-free) and loses them to eviction at
/// iteration 35 (a ~13% blip): the modelled series for the performance
/// shape, then the real runtime through the same scenario at laptop
/// scale for the functional behavior.
pub fn fig16(out: Out) -> io::Result<()> {
    let series = mf_timeline(&[
        (Layout::Traditional { machines: 4 }, 10, 0.0),
        (stage2(4, 60, 32), 24, 0.0),
        (Layout::Traditional { machines: 4 }, 11, 0.13),
    ]);
    let rows: Vec<(String, f64)> = (1..).map(|i| i.to_string()).zip(series.clone()).collect();
    Table::new(out, "iter:6|sec/iter:10.2|bar")?.bars(&rows)?;
    writeln!(
        out,
        "\neviction blip: iteration 35 runs {:.0}% over steady state (paper: 13%)",
        100.0 * (series[34] / series[35] - 1.0)
    )?;

    // Functional replay at laptop scale: real messages, real protocol.
    let replay = "1 reliable + 2 transient -> +4 -> evict 4";
    writeln!(out, "\nlive replay ({replay}), real runtime:")?;
    let data_cfg = MfDataConfig {
        rows: 40,
        cols: 30,
        true_rank: 3,
        observed: 800,
        noise: 0.02,
    };
    let data = netflix_like(&data_cfg, 16);
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
    let run = || -> Result<[f64; 3], String> {
        let mut job = AgileMlJob::launch(app.clone(), data.clone(), cfg, 1, 2)?;
        job.wait_clock(10)?;
        let o1 = job.objective(&data)?;
        let added = job.add_machines(NodeClass::Transient, 4)?;
        job.wait_clock(34)?;
        let o2 = job.objective(&data)?;
        job.evict_with_warning(&added)?;
        job.wait_clock(45)?;
        let o3 = job.objective(&data)?;
        job.shutdown()?;
        Ok([o1, o2, o3])
    };
    let [o1, o2, o3] = run().map_err(io::Error::other)?;
    writeln!(out, "  objective: iter10 {o1:.4} -> iter34 {o2:.4} -> iter45 {o3:.4} (monotone progress through add+evict)")
}

/// Ablation — AgileML "achieves best performance when running ActivePSs
/// on half of the resources" (Sec. 3.3): the fraction of transient
/// machines hosting an ActivePS, at Fig. 12's 15:1 and at 63:1.
pub fn ablate_activeps_ratio(out: Out) -> io::Result<()> {
    for (reliable, transient) in [(4u32, 60u32), (1, 63)] {
        writeln!(out, "\n{reliable} reliable + {transient} transient:")?;
        let mut table = Table::new(out, "fraction:12|ActivePSs:12|sec/iter:12.2")?;
        let mut best = (0.0f64, f64::INFINITY);
        for pct in [12.5f64, 25.0, 37.5, 50.0, 62.5, 75.0, 87.5, 100.0] {
            let active = (((transient as f64) * pct / 100.0).round() as u32).clamp(1, transient);
            let t = mf(stage2(reliable, transient, active));
            if t < best.1 {
                best = (pct, t);
            }
            table.row(&[&format!("{pct:.1}%"), &active, &t])?;
        }
        writeln!(out, "best fraction: {:.1}% (paper: ~50%)", best.0)?;
    }
    Ok(())
}

/// Ablation — AgileML switches stages at transient:reliable ratios of
/// 1:1 and 15:1 (Sec. 3.3), but "perfect threshold settings are not
/// required": where each stage wins across the full ratio axis.
pub fn ablate_stage_thresholds(out: Out) -> io::Result<()> {
    let spec = "ratio:10|stage1 s:10.2|stage2 s:10.2|stage3 s:10.2|best:10";
    let mut t = Table::new(out, spec)?;
    for reliable in [32u32, 16, 8, 4, 2, 1] {
        let transient = 64 - reliable;
        let active = (transient / 2).max(1);
        let s1 = stage1(reliable);
        let s2 = mf(stage2(reliable, transient, active));
        let s3 = mf(stage3(reliable, transient, active));
        let best = if s1 <= s2 && s1 <= s3 {
            "stage1"
        } else if s2 <= s3 {
            "stage2"
        } else {
            "stage3"
        };
        // One character wider than its header, as first printed.
        let ratio = format!("{:>9.1}:1", transient as f64 / reliable as f64);
        t.row(&[&ratio, &s1, &s2, &s3, &best])?;
    }
    writeln!(
        out,
        "\npaper thresholds: stage 2 above 1:1, stage 3 above 15:1. The crossovers\n\
         in this sweep should bracket those values, with flat penalties nearby."
    )
}
