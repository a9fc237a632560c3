//! Iteration-series simulations: scaling curves and elasticity
//! timelines (paper Figs. 14–16).

use crate::layout::{time_per_iteration, ClusterSpec, Layout};
use crate::workload::AppTraffic;

/// One phase of an elasticity timeline: a layout held for a number of
/// iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePhase {
    /// The layout during this phase.
    pub layout: Layout,
    /// Number of iterations spent in this phase.
    pub iterations: u32,
    /// Relative one-iteration blip applied to the first iteration of the
    /// phase (e.g. 0.13 for the paper's 13 % eviction blip; 0.0 for a
    /// background-prepared addition).
    pub entry_blip: f64,
}

/// Produces a per-iteration time series across a sequence of phases —
/// the shape of the paper's Fig. 16 (and Fig. 14 when both phases share
/// a machine count).
pub fn elasticity_timeline(
    spec: ClusterSpec,
    app: AppTraffic,
    phases: &[TimelinePhase],
) -> Vec<f64> {
    let mut out = Vec::new();
    for phase in phases {
        let base = time_per_iteration(spec, app, phase.layout);
        for i in 0..phase.iterations {
            let blip = if i == 0 { 1.0 + phase.entry_blip } else { 1.0 };
            out.push(base * blip);
        }
    }
    out
}

/// Strong-scaling curve: time per iteration at each machine count, using
/// the stage the paper used at that scale (traditional at 4, stage 1 at
/// 8 with half reliable, stage 3 with one reliable beyond), plus the
/// ideal curve scaled from the smallest point (Fig. 15).
pub fn scaling_curve(spec: ClusterSpec, app: AppTraffic, machines: &[u32]) -> Vec<(u32, f64, f64)> {
    assert!(!machines.is_empty(), "need at least one machine count");
    let base_machines = machines[0];
    let base = time_per_iteration(
        spec,
        app,
        Layout::Traditional {
            machines: base_machines,
        },
    );
    machines
        .iter()
        .map(|&m| {
            let layout = paper_scaling_layout(m, base_machines);
            let t = time_per_iteration(spec, app, layout);
            let ideal = base * f64::from(base_machines) / f64::from(m);
            (m, t, ideal)
        })
        .collect()
}

/// The layout the paper uses at each point of the Fig. 15 scaling study:
/// traditional at the base scale, stage 1 (half reliable) at 2× base,
/// stage 3 with one reliable machine beyond that.
pub fn paper_scaling_layout(machines: u32, base: u32) -> Layout {
    if machines <= base {
        Layout::Traditional { machines }
    } else if machines <= base * 2 {
        Layout::Stage1 {
            reliable_ps: base,
            total: machines,
        }
    } else {
        let transient = machines - 1;
        Layout::Stage3 {
            reliable: 1,
            transient,
            active_ps: (transient / 2).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn spec() -> ClusterSpec {
        ClusterSpec::cluster_a()
    }

    #[test]
    fn timeline_shows_speedup_then_blip_then_recovery() {
        // Fig. 16: 4 reliable → +60 transient at iteration 11 → eviction
        // back to 4 at iteration 35.
        let app = presets::mf_netflix_rank1000();
        let phases = [
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
                entry_blip: 0.0, // Background incorporation: no blip.
            },
            TimelinePhase {
                layout: Layout::Traditional { machines: 4 },
                iterations: 11,
                entry_blip: 0.13, // The paper's 13 % eviction blip.
            },
        ];
        let series = elasticity_timeline(spec(), app, &phases);
        assert_eq!(series.len(), 45);
        // Adding machines speeds iterations up immediately…
        assert!(series[10] < series[9] * 0.5);
        // …addition has no blip (equal to the next steady iteration)…
        assert_eq!(series[10], series[11]);
        // …eviction has a one-iteration blip…
        assert!(series[34] > series[35]);
        assert!((series[34] / series[35] - 1.13).abs() < 1e-9);
        // …and the post-eviction steady state matches the initial one.
        assert_eq!(series[44], series[0]);
    }

    #[test]
    fn scaling_is_near_ideal_for_lda() {
        // Fig. 15: 4→64 machines, time vs ideal.
        let pts = scaling_curve(spec(), presets::lda_nytimes(), &[4, 8, 16, 32, 64]);
        assert_eq!(pts.len(), 5);
        for (m, t, ideal) in &pts {
            assert!(
                *t <= ideal * 1.35,
                "machines={m}: {t} should stay near ideal {ideal}"
            );
            assert!(*t >= ideal * 0.95, "cannot beat ideal: {t} vs {ideal}");
        }
        // Monotone speedup.
        for w in pts.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn paper_scaling_layouts_match_section_6_5() {
        assert_eq!(
            paper_scaling_layout(4, 4),
            Layout::Traditional { machines: 4 }
        );
        assert_eq!(
            paper_scaling_layout(8, 4),
            Layout::Stage1 {
                reliable_ps: 4,
                total: 8
            }
        );
        assert_eq!(
            paper_scaling_layout(64, 4),
            Layout::Stage3 {
                reliable: 1,
                transient: 63,
                active_ps: 31
            }
        );
    }
}
