//! Order statistics over a handful of samples.

use crate::json::Value;

/// Median, quartiles, minimum and count of one metric's samples — what
/// the result file stores beside each reported median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted)?;
        Some(Summary {
            median,
            q1,
            q3,
            min: sorted[0],
            n: sorted.len(),
        })
    }

    /// A metric measured once per run (a peak, a count).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            min: value,
            n: 1,
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        Value::obj([
            ("unit", Value::Str(unit.to_string())),
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("min", Value::Num(self.min)),
            ("n", Value::Num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        Some(Summary {
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            n: num("n")? as usize,
        })
    }
}

/// The three quartile cut points of ascending `sorted`, computed like
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method), so spreads printed here match the ones the acceptance
/// driver computes. A single sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let len = sorted.len();
    match len {
        0 => return None,
        1 => return Some((sorted[0], sorted[0], sorted[0])),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // May be negative or exceed 4 after clamping `j` — the
        // extrapolation Python performs for very small samples.
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `p`-quantile (0..=1) of unsorted `samples` by linear
/// interpolation; `None` when empty.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([3, 5, 9], n=4) == [3.0, 5.0, 9.0]
        assert_eq!(quartiles(&[3.0, 5.0, 9.0]), Some((3.0, 5.0, 9.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_survives_json() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.n, 4);
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
    }
}
