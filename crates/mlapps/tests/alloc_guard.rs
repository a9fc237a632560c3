//! Allocation guard for the in-place data path: over a warmed worker
//! cache, the run pass `process` that both runtimes call allocates
//! nothing for MF and MLR (the two gradient apps the training
//! benchmarks run) and a small stated number of times per datum for LDA
//! and K-means. A counting global allocator makes the
//! property a test instead of a profile someone has to re-read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proteus_mlapps::data::blobs;
use proteus_mlapps::data::{
    imagenet_like, netflix_like, nytimes_like, LdaDataConfig, MfDataConfig, MlrDataConfig,
};
use proteus_mlapps::lda::{Lda, LdaConfig};
use proteus_mlapps::mf::{MatrixFactorization, MfConfig};
use proteus_mlapps::mlr::{Mlr, MlrConfig};
use proteus_mlapps::MlApp;
use proteus_mlapps::{KMeans, KmConfig};
use proteus_ps::{ParamKey, PartitionMap, WorkerCache};
use proteus_simtime::rng::seeded;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their
    /// own, so concurrent tests do not count each other's). `const` and
    /// `Cell`: no lazy initialiser and no destructor, so touching it
    /// from inside the allocator can neither allocate nor outlive TLS.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds
// (`try_with` returns an error instead of panicking during thread
// teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations one run pass of `process` over `data` makes, after a
/// first pass and a flush have warmed the cache, the run state, the
/// scratch and the dirty list — the state a worker is in from its second clock on.
fn allocations_per_pass<A: MlApp>(app: &A, data: Vec<A::Datum>, seed: u64) -> u64 {
    let mut rng = seeded(seed);
    let mut params = WorkerCache::new(PartitionMap::new(4).expect("nonzero"));
    for k in (0..app.key_count()).map(ParamKey) {
        params.refresh(k, app.init_value(k, &mut rng).as_slice());
    }
    let mut scratch = A::Scratch::default();
    let mut state = A::RunState::default();
    app.process(&data, &mut state, &mut scratch, &mut params, &mut rng);
    drop(params.flush());

    let before = ALLOCATIONS.with(Cell::get);
    app.process(&data, &mut state, &mut scratch, &mut params, &mut rng);
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn mf_process_allocates_nothing() {
    let data = netflix_like(
        &MfDataConfig {
            rows: 200,
            cols: 100,
            true_rank: 4,
            observed: 1000,
            noise: 0.02,
        },
        3,
    );
    assert_eq!(data.len(), 1000);
    let app = MatrixFactorization::new(MfConfig {
        rows: 200,
        cols: 100,
        rank: 16,
        ..MfConfig::default()
    });
    assert_eq!(allocations_per_pass(&app, data, 3), 0);
}

#[test]
fn mlr_process_allocates_nothing() {
    let data = imagenet_like(
        &MlrDataConfig {
            examples: 100,
            dim: 64,
            classes: 8,
            separation: 2.0,
            noise: 0.4,
        },
        5,
    );
    assert_eq!(data.len(), 100);
    let app = Mlr::new(MlrConfig {
        dim: 64,
        classes: 8,
        ..MlrConfig::default()
    });
    assert_eq!(allocations_per_pass(&app, data, 5), 0);
}

#[test]
fn kmeans_process_allocates_one_centroid_per_cluster() {
    let clusters = 3;
    let data = blobs(200, 4, clusters, 3.0, 0.4, 7);
    let app = KMeans::new(KmConfig {
        dim: 4,
        clusters,
        init_scale: 2.0,
    });
    // `assign` materialises each candidate centroid (sum / count).
    let made = allocations_per_pass(&app, data, 7);
    assert!(made <= 200 * u64::from(clusters), "{made} for 200 points");
}

#[test]
fn lda_process_allocations_are_bounded_per_document() {
    let (docs, doc_len) = (50, 40);
    let data = nytimes_like(
        &LdaDataConfig {
            docs,
            vocab: 200,
            true_topics: 4,
            doc_len,
            topic_purity: 0.9,
        },
        9,
        4,
    );
    let app = Lda::new(LdaConfig {
        vocab: 200,
        topics: 4,
        ..LdaConfig::default()
    });
    // Per document: one delta row per distinct word (at most `doc_len`
    // of them), plus a constant — five count/weight buffers and the
    // doubling growth of the word map and of the changed-word list.
    let bound = (docs * (16 + doc_len)) as u64;
    let made = allocations_per_pass(&app, data, 9);
    assert!(made <= bound, "{made} allocations for {docs} documents");
}
