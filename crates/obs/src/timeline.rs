//! Owned, queryable event timelines — the in-memory sink tests assert
//! against instead of scraping stdout.

use proteus_simtime::SimTime;

use crate::event::Event;

/// One recorded event with its sim-time stamp and a per-recorder
/// sequence number that makes ordering total even within a timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// When the event happened, in sim time.
    pub t: SimTime,
    /// Append order within the recorder (0-based).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// An owned snapshot of a recorder's event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Events in append order.
    pub events: Vec<TimedEvent>,
}

impl Timeline {
    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events whose kind starts with `prefix` (e.g. `"market."` for a
    /// whole subsystem, `"market.evicted"` for one kind).
    pub fn of_kind<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a TimedEvent> + 'a {
        self.events
            .iter()
            .filter(move |e| e.event.kind().starts_with(prefix))
    }

    /// How many events match `prefix` (see [`Timeline::of_kind`]).
    pub fn count(&self, prefix: &str) -> usize {
        self.of_kind(prefix).count()
    }

    /// True when sim-time stamps never decrease in append order — the
    /// monotonicity the exporter's schema promises.
    pub fn is_monotone(&self) -> bool {
        self.events.windows(2).all(|w| w[0].t <= w[1].t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MarketEvent, SessionEvent};

    fn ev(t_ms: u64, seq: u64, event: Event) -> TimedEvent {
        TimedEvent {
            t: SimTime::from_millis(t_ms),
            seq,
            event,
        }
    }

    #[test]
    fn queries_filter_by_kind_prefix() {
        let tl = Timeline {
            events: vec![
                ev(0, 0, Event::Session(SessionEvent::Degraded)),
                ev(5, 1, Event::Market(MarketEvent::Evicted { allocation: 7 })),
                ev(9, 2, Event::Market(MarketEvent::Launched { allocation: 8 })),
            ],
        };
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.count("market."), 2);
        assert_eq!(tl.count("market.evicted"), 1);
        assert_eq!(tl.count("bid."), 0);
        assert!(tl.of_kind("session.").next().is_some());
        assert!(tl.is_monotone());
    }

    #[test]
    fn monotonicity_detects_regressions() {
        let tl = Timeline {
            events: vec![
                ev(10, 0, Event::Session(SessionEvent::Degraded)),
                ev(5, 1, Event::Session(SessionEvent::Degraded)),
            ],
        };
        assert!(!tl.is_monotone());
    }
}
