//! Allocation guard for the data plane: over a warmed job, a training
//! clock costs a bounded number of heap allocations per message — an
//! `UpdateBatch`, `ReadResp` or `BackupPush` is one flat buffer, not one
//! allocation per row it carries.
//!
//! The counter is process-wide (an atomic, not a thread-local): same-
//! instant handlers run on the shared pool's helper threads, and their
//! allocations belong to the clock too. That is also why this file holds
//! a single `#[test]` — no other test of the binary may count into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use proteus_agileml::{AgileConfig, AgileMlJob};
use proteus_mlapps::data::{netflix_like, MfDataConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};

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

/// The most a message may cost: its envelope, its one payload buffer
/// (three vectors behind one `Arc`) and the handler's bookkeeping. One
/// allocation per row blows through it at once: an MF batch carries
/// tens of rows. A read round is kept from clock to clock, so a
/// `ReadReq` shares its key runs instead of building them; both shapes
/// measure 4.6 and 4.1 with it.
const PER_MESSAGE: f64 = 5.0;

/// An MF job of `rows × cols` at `rank` on `reliable + transient`
/// machines, warmed for `warm` clocks; returns allocations and messages
/// over the next `clocks`.
fn allocations_per_message(
    (rows, cols, rank, ratings): (u32, u32, usize, usize),
    (reliable, transient): (usize, usize),
    warm: u64,
    clocks: u64,
) -> f64 {
    let data = netflix_like(
        &MfDataConfig {
            rows,
            cols,
            true_rank: rank / 2,
            observed: ratings,
            noise: 0.05,
        },
        7,
    );
    let app = MatrixFactorization::new(MfConfig {
        rows,
        cols,
        rank,
        ..MfConfig::default()
    });
    let cfg = AgileConfig {
        seed: 7,
        ..AgileConfig::default()
    };
    let mut job = AgileMlJob::launch(app, data, cfg, reliable, transient).expect("launch");
    job.wait_clock(warm).expect("warm clocks");

    let (allocs, msgs) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        job.net_stats().messages,
    );
    job.wait_clock(warm + clocks).expect("timed clocks");
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs;
    let msgs = job.net_stats().messages - msgs;
    job.shutdown().expect("shutdown");
    assert!(msgs > 0, "the timed clocks sent nothing");
    allocs as f64 / msgs as f64
}

#[test]
fn a_clock_allocates_a_bounded_number_of_times_per_message() {
    // `train_mf`'s shape: 600 × 400 at rank 16 on 1 + 3 machines (stage
    // 2, so ActivePSs stream to a BackupPS every clock).
    let train = allocations_per_message((600, 400, 16, 12_000), (1, 3), 3, 5);
    // A session's shape: 200 × 150 at rank 8 on 1 + 10 machines — many
    // small batches, more owners per read round.
    let session = allocations_per_message((200, 150, 8, 6_000), (1, 10), 3, 5);
    assert!(
        train <= PER_MESSAGE && session <= PER_MESSAGE,
        "allocations per message: train-shaped {train:.1}, session-shaped {session:.1} \
         (bound {PER_MESSAGE})"
    );
}
