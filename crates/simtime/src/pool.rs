//! A persistent pool of parked helper threads for index-addressed
//! fan-out.
//!
//! Two layers fan work out the same way: a cost study runs independent
//! job simulations, and the discrete-event network core runs the
//! handlers of distinct nodes that are due at the same instant. Both
//! need results that do not depend on which thread ran what, and both
//! call often enough (thousands of times a sweep, several times a
//! training clock) that starting and joining threads per call costs
//! more than the work. [`Pool`] is a `Copy` handle onto one
//! process-wide set of helper threads that are started on first use and
//! parked on a condition variable between calls — no busy-waiting.
//!
//! # Determinism
//!
//! [`Pool::run_indexed`] publishes `task(i)` into slot `i`, so its
//! output equals the serial loop's for any deterministic task, whatever
//! the thread count or scheduling.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Environment variable overriding the thread count.
pub const THREADS_ENV: &str = "PROTEUS_THREADS";

/// A handle onto the process-wide helper pool, capped at `threads`
/// concurrent threads per call (the caller's thread included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

/// A submitter's claim-and-run loop with its lifetime erased, so parked
/// helper threads can be handed work that borrows the submitter's stack.
#[derive(Clone, Copy)]
struct DrainPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync`, so calling it from several threads at
// once is allowed, and `Pool::run_indexed` keeps it alive until every
// helper that copied the pointer has left it (see `Job`).
unsafe impl Send for DrainPtr {}

/// One open `run_indexed` call as the helpers see it.
struct Job {
    id: u64,
    drain: DrainPtr,
    /// Helpers that may still join; zero once the submitter closed the
    /// job, after which no helper copies `drain` again.
    seats: usize,
    /// Helpers currently inside `drain`. The submitter returns only
    /// after it has closed the job and seen this reach zero.
    inside: usize,
}

struct State {
    jobs: Vec<Job>,
    next_id: u64,
    /// Helper threads started so far; they live as long as the process.
    helpers: usize,
}

/// Helpers park on `work`; submitters wait on `left` for their helpers.
struct Shared {
    state: Mutex<State>,
    work: Condvar,
    left: Condvar,
}

static SHARED: Shared = Shared {
    state: Mutex::new(State {
        jobs: Vec::new(),
        next_id: 0,
        helpers: 0,
    }),
    work: Condvar::new(),
    left: Condvar::new(),
};

fn lock() -> MutexGuard<'static, State> {
    // No section under this lock runs caller code, so no holder panics.
    #[allow(clippy::expect_used)]
    SHARED
        .state
        .lock()
        .expect("pool state lock is never poisoned")
}

/// The body of a helper thread: join any open job with a free seat,
/// drain it, and park when there is none.
fn helper() {
    let mut state = lock();
    loop {
        let Some(job) = state.jobs.iter_mut().find(|j| j.seats > 0) else {
            // Parking cannot fail without a poisoned lock (see `lock`).
            #[allow(clippy::expect_used)]
            {
                state = SHARED.work.wait(state).expect("pool state lock");
            }
            continue;
        };
        job.seats -= 1;
        job.inside += 1;
        let (id, drain) = (job.id, job.drain);
        drop(state);
        // SAFETY: `inside` was raised under the lock while the job was
        // still listed, and the submitter does not return (so the
        // closure and everything it borrows stay alive) until it has
        // seen `inside` back at zero. The closure itself never unwinds:
        // it catches task panics and hands them to the submitter.
        unsafe { (*drain.0)() };
        state = lock();
        if let Some(job) = state.jobs.iter_mut().find(|j| j.id == id) {
            job.inside -= 1;
            if job.inside == 0 {
                SHARED.left.notify_all();
            }
        }
    }
}

impl Pool {
    /// A handle running each call on up to `threads` threads. One
    /// thread means the caller's thread runs everything inline and the
    /// pool is never touched.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A strictly serial handle (the reference path).
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// Thread count from `PROTEUS_THREADS`, falling back to the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        Pool::new(threads)
    }

    /// The configured thread cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Helper threads started so far, process-wide: zero until some call
    /// was wide enough to leave its caller's thread.
    pub fn helpers_started() -> usize {
        lock().helpers
    }

    /// Runs `task(i)` for every `i in 0..n` and returns the results in
    /// index order.
    ///
    /// The caller and up to `threads - 1` helpers claim indices from a
    /// shared counter (so long tasks do not serialize behind a static
    /// split) and publish into per-index slots. A panicking task stops
    /// further claims and resumes on the caller once the helpers have
    /// left.
    pub fn run_indexed<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send + Sync,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(task).collect();
        }
        let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| task(i))) {
                // Each index is claimed exactly once, so the slot is
                // always empty here.
                Ok(value) => {
                    let filled = slots[i].set(value).is_ok();
                    debug_assert!(filled, "slot {i} claimed twice");
                }
                Err(payload) => {
                    next.store(n, Ordering::Relaxed);
                    if let Ok(mut first) = panicked.lock() {
                        first.get_or_insert(payload);
                    }
                }
            }
        };
        let shared: &(dyn Fn() + Sync) = &drain;
        // SAFETY: only the lifetime is changed. The pointer is copied
        // by helpers solely while the job is listed with a free seat,
        // and this function delists the job and waits for `inside == 0`
        // before `drain` (and the borrows it holds) go out of scope.
        let erased: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(shared) };
        let seats = (self.threads - 1).min(n - 1);
        let id = open_job(DrainPtr(erased), seats);
        drain();
        close_job(id);
        // `close_job` returned, so no helper holds the pointer any more.
        if let Some(payload) = panicked.lock().ok().and_then(|mut p| p.take()) {
            resume_unwind(payload);
        }
        // The claim counter passed `n` with no panic recorded, so every
        // slot has been filled exactly once.
        #[allow(clippy::expect_used)]
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every index was claimed"))
            .collect()
    }
}

/// Lists a job, starts any helpers the pool is short of, and wakes as
/// many parked helpers as the job has seats.
fn open_job(drain: DrainPtr, seats: usize) -> u64 {
    let mut state = lock();
    let id = state.next_id;
    state.next_id += 1;
    state.jobs.push(Job {
        id,
        drain,
        seats,
        inside: 0,
    });
    while state.helpers < seats {
        let name = format!("proteus-pool-{}", state.helpers);
        // A refused spawn (thread limit) leaves the job to the threads
        // that exist; the caller drains whatever nobody else claims.
        if std::thread::Builder::new()
            .name(name)
            .spawn(helper)
            .is_err()
        {
            break;
        }
        state.helpers += 1;
    }
    drop(state);
    for _ in 0..seats {
        SHARED.work.notify_one();
    }
    id
}

/// Closes the job to new helpers, waits for those inside to leave, and
/// delists it.
fn close_job(id: u64) {
    let mut state = lock();
    loop {
        let Some(at) = state.jobs.iter().position(|j| j.id == id) else {
            return;
        };
        state.jobs[at].seats = 0;
        if state.jobs[at].inside == 0 {
            state.jobs.swap_remove(at);
            return;
        }
        // Waiting cannot fail without a poisoned lock (see `lock`).
        #[allow(clippy::expect_used)]
        {
            state = SHARED.left.wait(state).expect("pool state lock");
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let task = |i: usize| (i as f64).sqrt() * 3.0 + i as f64;
        let serial = Pool::serial().run_indexed(97, task);
        for threads in [2, 3, 8] {
            let parallel = Pool::new(threads).run_indexed(97, task);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn results_are_in_index_order() {
        let out = Pool::new(4).run_indexed(100, |i| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert!(Pool::new(4).run_indexed(0, |i| i).is_empty());
        assert_eq!(Pool::new(4).run_indexed(1, |i| i), vec![0]);
    }

    #[test]
    fn zero_thread_request_is_clamped_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn helpers_take_part_and_borrowed_state_survives_them() {
        // Two tasks that each wait for the other: only a second thread
        // can let the call finish, and both write through a borrow of
        // this frame.
        let barrier = std::sync::Barrier::new(2);
        let seen = Mutex::new(Vec::new());
        Pool::new(2).run_indexed(2, |i| {
            barrier.wait();
            seen.lock().unwrap().push(i);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        std::thread::scope(|s| {
            for t in 0..4usize {
                s.spawn(move || {
                    for round in 0..50usize {
                        let out = Pool::new(3).run_indexed(17, |i| i * t + round);
                        let want: Vec<usize> = (0..17).map(|i| i * t + round).collect();
                        assert_eq!(out, want);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_task_resumes_on_the_caller() {
        let caught = catch_unwind(|| {
            Pool::new(2).run_indexed(8, |i| {
                if i == 3 {
                    panic!("task three");
                }
                i
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task three"));
        // The pool is still usable afterwards.
        assert_eq!(Pool::new(2).run_indexed(4, |i| i), vec![0, 1, 2, 3]);
    }
}
