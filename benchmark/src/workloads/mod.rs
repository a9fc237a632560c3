//! The seven workloads, by name.

use crate::run::{Ctx, Layers, Rep};

pub mod fleet;
pub mod session;
pub mod study;
pub mod train;

/// One rep of `workload` on fresh state: set-up, the timed region, and
/// the checks on what it produced. `None` when a driver call failed in
/// a way that leaves nothing to measure (the failure is counted).
pub fn rep(workload: &str, ctx: &mut Ctx) -> Option<Rep> {
    match workload {
        "train_mf" => train::rep_mf(ctx),
        "train_mlr" => train::rep_mlr(ctx),
        "train_elastic" => train::rep_elastic(ctx),
        "session_calm" => session::rep(ctx, false),
        "session_churn" => session::rep(ctx, true),
        "cost_study" => study::rep(ctx),
        "fleet_sweep" => fleet::rep(ctx),
        _ => None,
    }
}

/// Checks made once per run rather than once per rep; `first` is the
/// first rep's exact results.
pub fn verify_once(workload: &str, ctx: &mut Ctx, first: &[(&'static str, f64)]) {
    if workload == "cost_study" {
        study::verify_once(ctx, first);
    }
}

/// The per-layer metrics of a traced run: counts from the traced
/// `reps`, latencies from the spans, unit costs from the layer probes.
pub fn layers(workload: &str, ctx: &mut Ctx, reps: &[Rep], layers: &mut Layers) {
    match workload {
        "train_mf" | "train_mlr" | "train_elastic" => train::layers(workload, ctx, reps, layers),
        "session_calm" => session::layers(ctx, false, reps, layers),
        "session_churn" => session::layers(ctx, true, reps, layers),
        "cost_study" => study::layers(ctx, reps, layers),
        "fleet_sweep" => fleet::layers(ctx, reps, layers),
        _ => {}
    }
}
