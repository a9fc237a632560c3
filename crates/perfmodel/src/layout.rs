//! Layouts and the bottleneck time-per-iteration model.

use crate::workload::AppTraffic;

/// Homogeneous cluster hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Worker cores per machine.
    pub cores_per_machine: u32,
    /// Full-duplex NIC bandwidth per machine, MB/s per direction.
    pub bw_mbps: f64,
}

impl ClusterSpec {
    /// The paper's Cluster-A: c4.2xlarge (8 vCPUs), ~1 Gbps.
    pub fn cluster_a() -> Self {
        ClusterSpec {
            cores_per_machine: 8,
            bw_mbps: 125.0,
        }
    }
}

/// A functional layout of the cluster (who serves, who works, who backs
/// up) — the paper's Fig. 4 plus the traditional baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Traditional parameter server: every machine is reliable and runs
    /// both a PS shard and workers.
    Traditional {
        /// Machine count.
        machines: u32,
    },
    /// Stage 1: PS shards only on the `reliable_ps` reliable machines;
    /// every machine (reliable and transient) runs workers.
    Stage1 {
        /// Machines hosting PS shards (the reliable tier).
        reliable_ps: u32,
        /// Total machines (reliable + transient).
        total: u32,
    },
    /// Stage 2: `active_ps` of the transient machines host ActivePSs;
    /// reliable machines host BackupPSs; workers run everywhere.
    Stage2 {
        /// Reliable machine count (backup holders, also workers).
        reliable: u32,
        /// Transient machine count.
        transient: u32,
        /// ActivePS hosts among the transient machines.
        active_ps: u32,
    },
    /// Stage 3: like stage 2 but reliable machines run no workers.
    Stage3 {
        /// Reliable machine count (backup holders only).
        reliable: u32,
        /// Transient machine count (all workers).
        transient: u32,
        /// ActivePS hosts among the transient machines.
        active_ps: u32,
    },
}

impl Layout {
    /// Number of machines running workers.
    pub fn worker_machines(&self) -> u32 {
        match *self {
            Layout::Traditional { machines } => machines,
            Layout::Stage1 { total, .. } => total,
            Layout::Stage2 {
                reliable,
                transient,
                ..
            } => reliable + transient,
            Layout::Stage3 { transient, .. } => transient,
        }
    }

    /// Number of machines hosting serving PS shards.
    pub fn server_machines(&self) -> u32 {
        match *self {
            Layout::Traditional { machines } => machines,
            Layout::Stage1 { reliable_ps, .. } => reliable_ps,
            Layout::Stage2 { active_ps, .. } | Layout::Stage3 { active_ps, .. } => active_ps,
        }
    }

    /// Validates structural constraints.
    pub fn validate(&self) -> Result<(), String> {
        let ok = match *self {
            Layout::Traditional { machines } => machines > 0,
            Layout::Stage1 { reliable_ps, total } => reliable_ps > 0 && total >= reliable_ps,
            Layout::Stage2 {
                reliable,
                transient,
                active_ps,
            }
            | Layout::Stage3 {
                reliable,
                transient,
                active_ps,
            } => reliable > 0 && active_ps > 0 && active_ps <= transient,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("invalid layout {self:?}"))
        }
    }
}

/// Time per iteration (seconds) for an app on a cluster under a layout.
///
/// The model: compute is spread evenly over worker cores; read volume is
/// served by PS hosts (NIC out) to workers (NIC in); update volume flows
/// workers → PS hosts; coalesced backup pushes flow ActivePS → BackupPS.
/// A machine's iteration time is the max of its compute and its NIC
/// drain in each direction; the iteration is gated by the slowest
/// machine that *participates* in the iteration (pure-backup machines in
/// stage 3 absorb their inflow asynchronously and do not gate).
///
/// # Panics
///
/// Panics on an invalid layout or workload (programmer error in
/// experiment definitions).
// The panic contract above is the API: experiment definitions are
// static literals and a bad one must fail loudly at construction.
#[allow(clippy::expect_used)]
pub fn time_per_iteration(spec: ClusterSpec, app: AppTraffic, layout: Layout) -> f64 {
    layout.validate().expect("valid layout");
    app.validate().expect("valid workload");

    let w = f64::from(layout.worker_machines());
    let s = f64::from(layout.server_machines());
    assert!(w > 0.0, "a layout must have workers");
    let bw = spec.bw_mbps;
    let compute = app.compute_core_secs / (w * f64::from(spec.cores_per_machine));

    // Per-machine traffic by role (MB).
    let worker_in = app.read_mb / w;
    let worker_out = app.update_mb / w;
    let server_in = app.update_mb / s;
    let server_out = app.read_mb / s;

    let mut gating: Vec<f64> = Vec::new();

    match layout {
        Layout::Traditional { .. } => {
            // Every machine: worker + server shard.
            let t_in = (worker_in + server_in) / bw;
            let t_out = (worker_out + server_out) / bw;
            gating.push(compute.max(t_in).max(t_out));
        }
        Layout::Stage1 { reliable_ps, total } => {
            // Reliable: server + worker.
            let r_in = (worker_in + server_in) / bw;
            let r_out = (worker_out + server_out) / bw;
            gating.push(compute.max(r_in).max(r_out));
            // Transient: worker only.
            if total > reliable_ps {
                let t_in = worker_in / bw;
                let t_out = worker_out / bw;
                gating.push(compute.max(t_in).max(t_out));
            }
        }
        Layout::Stage2 {
            reliable,
            transient,
            active_ps,
        } => {
            let a = f64::from(active_ps);
            let r = f64::from(reliable);
            // ActivePS transient machines: server + worker + backup out.
            let ap_in = (worker_in + server_in) / bw;
            let ap_out = (worker_out + server_out + app.backup_mb / a) / bw;
            gating.push(compute.max(ap_in).max(ap_out));
            // Plain transient workers.
            if transient > active_ps {
                gating.push(compute.max(worker_in / bw).max(worker_out / bw));
            }
            // Reliable machines: worker sharing the NIC with backup
            // inflow — the paper's straggler effect.
            let rel_in = (worker_in + app.backup_mb / r) / bw;
            let rel_out = worker_out / bw;
            gating.push(compute.max(rel_in).max(rel_out));
        }
        Layout::Stage3 {
            transient,
            active_ps,
            ..
        } => {
            let a = f64::from(active_ps);
            let ap_in = (worker_in + server_in) / bw;
            let ap_out = (worker_out + server_out + app.backup_mb / a) / bw;
            gating.push(compute.max(ap_in).max(ap_out));
            if transient > active_ps {
                gating.push(compute.max(worker_in / bw).max(worker_out / bw));
            }
            // Reliable machines only absorb asynchronous backup pushes;
            // they do not gate the iteration.
        }
    }

    gating.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn spec() -> ClusterSpec {
        ClusterSpec::cluster_a()
    }

    fn mf() -> AppTraffic {
        presets::mf_netflix_rank1000()
    }

    #[test]
    fn layout_validation() {
        assert!(Layout::Traditional { machines: 0 }.validate().is_err());
        assert!(Layout::Stage1 {
            reliable_ps: 0,
            total: 4
        }
        .validate()
        .is_err());
        assert!(Layout::Stage2 {
            reliable: 1,
            transient: 4,
            active_ps: 5
        }
        .validate()
        .is_err());
        assert!(Layout::Stage3 {
            reliable: 1,
            transient: 63,
            active_ps: 32
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn stage1_collapses_with_few_servers() {
        // Fig. 11 shape: 4 ParamServs out of 64 is several times slower
        // than traditional; 32 ParamServs is close to traditional.
        let trad = time_per_iteration(spec(), mf(), Layout::Traditional { machines: 64 });
        let ps4 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage1 {
                reliable_ps: 4,
                total: 64,
            },
        );
        let ps16 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage1 {
                reliable_ps: 16,
                total: 64,
            },
        );
        let ps32 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage1 {
                reliable_ps: 32,
                total: 64,
            },
        );
        assert!(ps4 > 4.0 * trad, "4 ParamServs collapse: {ps4} vs {trad}");
        assert!(ps16 > 1.2 * trad && ps16 < ps4);
        assert!(ps32 < 1.15 * trad, "1:1 ratio is near-traditional");
    }

    #[test]
    fn stage2_fixes_middle_ratios_with_residual_straggler() {
        // Fig. 12 shape at 4 reliable + 60 transient.
        let trad = time_per_iteration(spec(), mf(), Layout::Traditional { machines: 64 });
        let s2_16 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage2 {
                reliable: 4,
                transient: 60,
                active_ps: 16,
            },
        );
        let s2_32 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage2 {
                reliable: 4,
                transient: 60,
                active_ps: 32,
            },
        );
        let s1_4 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage1 {
                reliable_ps: 4,
                total: 64,
            },
        );
        assert!(s2_32 < s2_16, "more ActivePSs spread the load");
        assert!(s2_16 < s1_4, "stage 2 beats stage 1 at 15:1");
        let slowdown = s2_32 / trad;
        assert!(
            slowdown > 1.05 && slowdown < 1.4,
            "residual straggler ≈18%, got {slowdown}"
        );
    }

    #[test]
    fn stage3_matches_traditional_at_63_to_1() {
        // Fig. 13 shape.
        let trad = time_per_iteration(spec(), mf(), Layout::Traditional { machines: 64 });
        let s2 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage2 {
                reliable: 1,
                transient: 63,
                active_ps: 32,
            },
        );
        let s3 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage3 {
                reliable: 1,
                transient: 63,
                active_ps: 32,
            },
        );
        assert!(s2 > 2.0 * trad, "stage 2 at 63:1 loses ≥2×: {s2} vs {trad}");
        assert!(
            s3 < 1.1 * trad,
            "stage 3 matches traditional: {s3} vs {trad}"
        );
    }

    #[test]
    fn stage2_beats_stage3_at_one_to_one() {
        // Fig. 14 shape: at 8 reliable + 8 transient, stage 3 throws
        // away half the workers and loses.
        let s2 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage2 {
                reliable: 8,
                transient: 8,
                active_ps: 4,
            },
        );
        let s3 = time_per_iteration(
            spec(),
            mf(),
            Layout::Stage3 {
                reliable: 8,
                transient: 8,
                active_ps: 4,
            },
        );
        assert!(s2 < s3, "stage 2 ({s2}) beats stage 3 ({s3}) at 1:1");
    }

    #[test]
    fn compute_bound_workloads_scale_linearly() {
        let app = AppTraffic {
            compute_core_secs: 10_000.0,
            read_mb: 1.0,
            update_mb: 1.0,
            backup_mb: 1.0,
        };
        let t8 = time_per_iteration(spec(), app, Layout::Traditional { machines: 8 });
        let t16 = time_per_iteration(spec(), app, Layout::Traditional { machines: 16 });
        assert!((t8 / t16 - 2.0).abs() < 1e-9);
    }
}
