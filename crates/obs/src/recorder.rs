//! The shared recorder: one cheap mutex around an append-only event log
//! and a few named counters, plus an embedded sim clock for components
//! whose call paths do not carry a `SimTime` (the wall-clock training
//! plane, for instance).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use proteus_simtime::SimTime;

use crate::event::Event;
use crate::timeline::{TimedEvent, Timeline};

#[derive(Default)]
struct Inner {
    events: Vec<TimedEvent>,
    counters: BTreeMap<&'static str, u64>,
}

/// The recorder. Clone an `Arc<Recorder>` into every subsystem that
/// should feed the same timeline; hold `Option<Arc<Recorder>>` and
/// guard each emission so the disabled path stays allocation-free.
///
/// Recording is passive by contract: nothing read back from a recorder
/// may influence a simulation decision or an RNG draw.
#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
    /// Sim "now" in millis, advanced by whoever owns the sim clock and
    /// read by components that only see wall time.
    clock: AtomicU64,
}

/// A simulation's optional recorder, which a clone does not inherit: a
/// clone of the state that holds it is a fork, and what a fork does is
/// not its original's timeline. A fork starts with none; a caller that
/// wants it recorded attaches a fresh recorder.
#[derive(Default)]
pub struct Unshared(pub Option<Arc<Recorder>>);

impl Clone for Unshared {
    fn clone(&self) -> Self {
        Unshared(None)
    }
}

impl Recorder {
    /// A fresh recorder at sim epoch. The event log is pre-reserved so
    /// early emissions don't pay repeated growth-realloc copies.
    pub fn new() -> Self {
        let rec = Recorder::default();
        rec.inner().events.reserve(64);
        rec
    }

    /// The locked log and counters. A recorder only ever appends, so a
    /// panic mid-emission leaves it usable: a poisoned lock is recovered.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advances the embedded sim clock (monotone by convention; the
    /// recorder does not enforce it, timestamps come from the caller).
    pub fn set_now(&self, t: SimTime) {
        self.clock.store(t.as_millis(), Ordering::Release);
    }

    /// The embedded sim clock's current value.
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.clock.load(Ordering::Acquire))
    }

    /// Appends `event` stamped `t`.
    pub fn record(&self, t: SimTime, event: Event) {
        let mut inner = self.inner();
        let seq = inner.events.len() as u64;
        inner.events.push(TimedEvent { t, seq, event });
    }

    /// Appends `event` stamped with the embedded sim clock.
    pub fn record_now(&self, event: Event) {
        self.record(self.now(), event);
    }

    /// Increments a counter. A count of some happening belongs in an
    /// event (a fold over the stream counts it); a counter is for what
    /// no event records.
    pub fn counter_add(&self, name: &'static str, by: u64) {
        *self.inner().counters.entry(name).or_default() += by;
    }

    /// Reads a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner().counters.get(name).copied().unwrap_or(0)
    }

    /// An owned snapshot of the event log.
    pub fn timeline(&self) -> Timeline {
        Timeline {
            events: self.inner().events.clone(),
        }
    }

    /// Serializes the current timeline to JSONL. Renders under the lock
    /// rather than snapshotting first — cloning every event (and its
    /// strings) just to serialize them would dominate export cost.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner();
        let mut out = String::with_capacity(inner.events.len() * 96);
        crate::jsonl::write_events(&inner.events, &mut out);
        out
    }

    /// Appends the current timeline's JSONL to `out` — the allocation-
    /// shy form of [`Self::to_jsonl`] for merging many recorders into
    /// one export.
    pub fn append_jsonl(&self, out: &mut String) {
        let inner = self.inner();
        out.reserve(inner.events.len() * 96);
        crate::jsonl::write_events(&inner.events, out);
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner();
        f.debug_struct("Recorder")
            .field("events", &inner.events.len())
            .field("now_ms", &self.clock.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SessionEvent;

    #[test]
    fn records_in_append_order_with_sequence_numbers() {
        let rec = Recorder::new();
        rec.record(
            SimTime::from_millis(10),
            Event::Session(SessionEvent::Degraded),
        );
        rec.set_now(SimTime::from_millis(25));
        rec.record_now(Event::Session(SessionEvent::Restored { degraded_ms: 15 }));
        let tl = rec.timeline();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.events[0].seq, 0);
        assert_eq!(tl.events[1].seq, 1);
        assert_eq!(tl.events[1].t, SimTime::from_millis(25));
        assert!(tl.is_monotone());
    }

    #[test]
    fn clock_round_trips() {
        let rec = Recorder::new();
        assert_eq!(rec.now(), SimTime::EPOCH);
        rec.set_now(SimTime::from_hours(3));
        assert_eq!(rec.now(), SimTime::from_hours(3));
    }

    #[test]
    fn metrics_are_shared_and_snapshotted() {
        let rec = std::sync::Arc::new(Recorder::new());
        let shared = std::sync::Arc::clone(&rec);
        rec.counter_add("x", 2);
        shared.counter_add("x", 1);
        assert_eq!(rec.counter("x"), 3);
        assert_eq!(rec.counter("missing"), 0);
    }
}
