//! Hand-rolled JSONL export: the workspace has no serialization crate,
//! so serialization is explicit `format!` work, as in the bench JSON
//! reports.
//!
//! One event per line:
//!
//! ```json
//! {"t_ms":11520000,"seq":4,"kind":"market.spot_granted","market":"us-east-1a/c4.xlarge","allocation":3,"count":4,"bid":0.5}
//! ```
//!
//! `t_ms` stamps are monotone non-decreasing within one recorder's
//! export, and floats are rendered with Rust's shortest-roundtrip
//! `Display`, so identical timelines serialize to identical bytes.

/// Appends a decimal integer without going through `core::fmt` — the
/// formatter machinery is the export's hot path (~270k field writes in
/// a paper-scale study), and a manual digit loop is several times
/// cheaper.
pub(crate) fn push_raw_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Digits are ASCII by construction.
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap_or("0"));
}

/// A field type an event payload may hold: `u64`, `f64`, `String` or
/// `Arc<str>`, each rendered as one JSON value.
pub(crate) trait JsonValue {
    /// Appends this value's JSON rendering.
    fn write_value(&self, out: &mut String);

    /// Appends `,"name":value`.
    fn write_field(&self, out: &mut String, name: &str) {
        out.push_str(",\"");
        out.push_str(name);
        out.push_str("\":");
        self.write_value(out);
    }
}

impl JsonValue for u64 {
    fn write_value(&self, out: &mut String) {
        push_raw_u64(out, *self);
    }
}

/// Non-finite values become `null` (JSON has no NaN/∞). Floats keep
/// Rust's shortest-roundtrip `Display` so identical timelines serialize
/// to identical bytes.
impl JsonValue for f64 {
    fn write_value(&self, out: &mut String) {
        if self.is_finite() {
            use std::fmt::Write;
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl JsonValue for String {
    fn write_value(&self, out: &mut String) {
        push_quoted(out, self);
    }
}

impl JsonValue for std::sync::Arc<str> {
    fn write_value(&self, out: &mut String) {
        push_quoted(out, self);
    }
}

/// Appends `s` as a JSON string, escaping the characters that can
/// actually occur in market keys, stage names, and trace messages.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes a slice of timed events to JSONL, appending to `out`.
pub(crate) fn write_events(events: &[crate::timeline::TimedEvent], out: &mut String) {
    for e in events {
        out.push_str("{\"t_ms\":");
        push_raw_u64(out, e.t.as_millis());
        out.push_str(",\"seq\":");
        push_raw_u64(out, e.seq);
        out.push_str(",\"kind\":\"");
        out.push_str(e.event.kind());
        out.push('"');
        e.event.write_fields(out);
        out.push_str("}\n");
    }
}

/// The export path named by [`crate::OBS_OUT_ENV`], if set and
/// non-empty.
pub fn export_path() -> Option<String> {
    match std::env::var(crate::OBS_OUT_ENV) {
        Ok(p) if !p.is_empty() => Some(p),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, MarketEvent};
    use crate::timeline::TimedEvent;
    use proteus_simtime::SimTime;

    #[test]
    fn serializes_one_object_per_line() {
        let events = vec![
            TimedEvent {
                t: SimTime::from_millis(1000),
                seq: 0,
                event: Event::Market(MarketEvent::SpotGranted {
                    market: "us-east-1a/c4.xlarge".into(),
                    allocation: 3,
                    count: 4,
                    bid: 0.5,
                }),
            },
            TimedEvent {
                t: SimTime::from_millis(2000),
                seq: 1,
                event: Event::Market(MarketEvent::Evicted { allocation: 3 }),
            },
        ];
        let mut s = String::new();
        write_events(&events, &mut s);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t_ms\":1000,\"seq\":0,\"kind\":\"market.spot_granted\",\
             \"market\":\"us-east-1a/c4.xlarge\",\"allocation\":3,\"count\":4,\"bid\":0.5}"
        );
        assert_eq!(
            lines[1],
            "{\"t_ms\":2000,\"seq\":1,\"kind\":\"market.evicted\",\"allocation\":3}"
        );
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut out = String::new();
        String::from("a\"b\\c\nd\u{1}").write_field(&mut out, "msg");
        assert_eq!(out, ",\"msg\":\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        f64::NAN.write_field(&mut out, "x");
        f64::INFINITY.write_field(&mut out, "y");
        1.25f64.write_field(&mut out, "z");
        assert_eq!(out, ",\"x\":null,\"y\":null,\"z\":1.25");
    }
}
