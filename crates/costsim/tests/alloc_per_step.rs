//! Allocation guard for the cost study's decision step: once a job's
//! buffers have grown to fit, a steady-state step allocates nothing —
//! BidBrain keeps its footprint, terms and ranked list from step to step
//! and walks the list where it lies. What is left is the work that
//! really happens now and then: a grant, an hour-end renewal pass, a
//! step whose provider events need a list.
//!
//! The counter is process-wide (an atomic): this file holds a single
//! `#[test]`, so no other test of the binary counts into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use proteus_bidbrain::DECISION_STEP;
use proteus_costsim::{run_job, JobSpec, Scheme, SchemeKind, StudyConfig, StudyEnv};
use proteus_simtime::SimDuration;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most a decision step may cost on average. Building the footprint,
/// its terms and the ranked list afresh every step measured 4.37 per
/// step on this job (1 777 allocations over 407 steps); with the kept
/// buffers it measures 0.42 (172), the rest being the provider's event
/// lists on steps that charge an hour, grants, and hour-end renewal
/// passes. One more allocation per step fails it.
const PER_STEP: f64 = 1.0;

#[test]
fn a_decision_step_allocates_nothing_in_steady_state() {
    let env = StudyEnv::new(StudyConfig {
        seed: 3,
        train_days: 5,
        eval_days: 7,
        starts: 1,
        ..StudyConfig::default()
    });
    let scheme = Scheme {
        kind: SchemeKind::paper_proteus(),
        job: JobSpec::cluster_b_job(20.0, env.on_demand_market),
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = run_job(
        &scheme,
        &env.traces,
        &env.beta,
        env.starts[0],
        SimDuration::from_hours(96),
    );
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(outcome.completed, "{outcome:?}");
    let steps = outcome.runtime.as_millis() / DECISION_STEP.as_millis();
    let per_step = allocations as f64 / steps as f64;
    assert!(
        per_step <= PER_STEP,
        "{allocations} allocations over {steps} decision steps: {per_step:.2} per step"
    );
}
