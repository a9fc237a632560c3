//! Allocation guard for block loads: a worker reads its blocks from the
//! job's one shared dataset, so loading them — at launch, or when an
//! addition moves blocks onto new workers — allocates bytes that do not
//! grow with the width of a datum. A worker that cloned its blocks would
//! allocate one more copy of every feature it loads.
//!
//! The counter is process-wide (an atomic, not a thread-local): same-
//! instant handlers run on the shared pool's helper threads, and their
//! allocations belong to the load too. That is also why this file holds
//! a single `#[test]` — no other test of the binary may count into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use proteus_agileml::{AgileConfig, AgileMlJob};
use proteus_mlapps::data::{imagenet_like, MlrDataConfig};
use proteus_mlapps::mlr::{Mlr, MlrConfig};
use proteus_simnet::NodeClass;

static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const EXAMPLES: usize = 2_000;
const CLASSES: u32 = 2;

/// Bytes allocated by `f`.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

/// Bytes allocated by launching an MLR job on `dim`-wide examples
/// (1 reliable + 3 transient machines: every block is loaded once) and
/// by adding two transient machines to it (blocks move onto them).
fn load_bytes(dim: usize) -> (u64, u64) {
    let data = imagenet_like(
        &MlrDataConfig {
            examples: EXAMPLES,
            dim,
            classes: CLASSES,
            separation: 2.0,
            noise: 0.4,
        },
        3,
    );
    let app = Mlr::new(MlrConfig {
        dim,
        classes: CLASSES,
        learning_rate: 0.05,
        reg: 1e-4,
    });
    // One partition per key.
    let cfg = AgileConfig {
        partitions: CLASSES,
        seed: 3,
        ..AgileConfig::default()
    };
    let (job, launch) = bytes_in(|| AgileMlJob::launch(app, data, cfg, 1, 3));
    let mut job = job.expect("launch");
    job.wait_clock(2).expect("two clocks");
    let (added, add) = bytes_in(|| job.add_machines(NodeClass::Transient, 2));
    added.expect("add two machines");
    job.wait_clock(4).expect("two more clocks");
    job.shutdown().expect("shutdown");
    (launch, add)
}

#[test]
fn block_loads_allocate_no_bytes_per_feature() {
    let (narrow, wide) = (64, 512);
    let (launch_narrow, add_narrow) = load_bytes(narrow);
    let (launch_wide, add_wide) = load_bytes(wide);
    // What one more copy of the dataset would add going from narrow to
    // wide features. The model's rows grow too: by about a seventieth of
    // that at each step (a worker that cloned its blocks grew by 1.01
    // copies at launch and 0.32 at the addition).
    let copy = (EXAMPLES * (wide - narrow) * std::mem::size_of::<f32>()) as u64;
    let grew = |narrow: u64, wide: u64| wide.saturating_sub(narrow);
    let (launch, add) = (grew(launch_narrow, launch_wide), grew(add_narrow, add_wide));
    assert!(
        launch * 10 < copy && add * 10 < copy,
        "bytes grown {narrow} -> {wide} floats wide: launch {launch}, add_machines {add} \
         (one copy of the data grows {copy})"
    );
}
