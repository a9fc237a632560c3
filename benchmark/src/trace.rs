//! Spans around the calls the benchmark makes into the crates.
//!
//! The crates carry no wall-clock instrumentation of their own yet, so
//! every span here is taken from outside: it opens just before a public
//! function is entered and closes when it returns. Spans are kept in
//! memory and written out once, when the run ends.

use std::time::Instant;

use crate::json::Value;

/// One timed call. `parent` indexes the enclosing span in the same
/// trace; spans of one rep share `rep`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn millis(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; when disabled every [`Tracer::span`] is
/// a plain call, which is what the end-to-end pass measures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between reps (the traced pass
    /// alternates the two to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new rep: later spans carry the next rep id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn millis_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::millis)
            .collect()
    }

    /// A span's self time: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let span = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Value::obj([
                        ("id", Value::Num(i as f64)),
                        ("name", Value::Str(s.name.to_string())),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("self_ns", Value::Num(self.self_ns(i) as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("rep", Value::Num(f64::from(s.rep))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.next_rep();
        let out = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            7
        });
        assert_eq!(out, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, 1);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(t.self_ns(0) < spans[0].end_ns - spans[0].start_ns);
        assert_eq!(t.millis_of("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
