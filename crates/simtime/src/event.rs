//! A stable discrete-event priority queue.
//!
//! Events scheduled for the same instant pop in insertion order, which keeps
//! simulations deterministic regardless of heap tie-breaking internals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One scheduled entry: fire time, insertion sequence number, payload.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A discrete-event queue ordered by fire time, then by insertion order.
///
/// # Examples
///
/// ```
/// use proteus_simtime::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(20), "later");
/// q.schedule(SimTime::from_millis(10), "first");
/// q.schedule(SimTime::from_millis(10), "second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "first")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "second")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at instant `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// The fire time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Removes and returns the earliest event only if it fires at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3u32);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime::from_millis(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "early");
        q.schedule(SimTime::from_millis(30), "late");
        assert_eq!(q.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(
            q.pop_due(SimTime::from_millis(15)),
            Some((SimTime::from_millis(10), "early"))
        );
        assert_eq!(q.pop_due(SimTime::from_millis(15)), None);
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "late")));
        assert_eq!(q.pop(), None);
    }
}
