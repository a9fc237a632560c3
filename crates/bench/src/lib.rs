//! Every table and figure of the paper's evaluation, as one table of
//! entries the `figs` binary runs by id.
//!
//! An entry renders its rows/series to a writer; `tests/figs_golden.rs`
//! pins the output of the whole table, and `EXPERIMENTS.md` records the
//! paper-vs-measured values it prints. The printing shapes the entries
//! share and the common study configuration live here.

// Entries return their failures through `io::Result`, never panic.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(unnameable_types)]
#![forbid(unsafe_code)]

mod cost;
mod misc;
mod perf;

use std::fmt::Display;
use std::io::{self, Write};

use proteus_costsim::StudyConfig;

/// Where an entry prints.
pub type Out<'a> = &'a mut dyn Write;

/// One table or figure of the evaluation: what `figs <id>` selects, the
/// header line (the paper's label and what the entry shows) and the
/// function that prints the body.
pub struct Fig {
    pub id: &'static str,
    pub caption: &'static str,
    pub run: fn(Out) -> io::Result<()>,
}

/// The evaluation in the order `figs all` prints it.
#[rustfmt::skip] // A table: one entry a line.
pub static FIGS: [Fig; 20] = [
    Fig { id: "fig01", run: cost::fig01, caption: "Fig. 1: cost ($) and runtime (h): MLR-scale 4-hour job, 128-machine fleet" },
    Fig { id: "fig03", run: misc::fig03, caption: "Fig. 3: six days of synthetic spot prices, c4 family" },
    Fig { id: "fig08", run: cost::fig08, caption: "Fig. 8: 2-hour jobs: cost (% of on-demand) and runtime" },
    Fig { id: "fig09", run: cost::fig09, caption: "Fig. 9: 20-hour jobs: cost (% of on-demand) and runtime" },
    Fig { id: "fig10", run: cost::fig10, caption: "Fig. 10: machine-hours per 2-hour job: on-demand / spot / free" },
    Fig { id: "fig11", run: perf::fig11, caption: "Fig. 11: stage 1 time-per-iteration vs ParamServ count (MF, 64 machines)" },
    Fig { id: "fig12", run: perf::fig12, caption: "Fig. 12: stage 2 time-per-iteration, 4 reliable + 60 transient (MF)" },
    Fig { id: "fig13", run: perf::fig13, caption: "Fig. 13: stage 3 time-per-iteration, 1 reliable + 63 transient (MF)" },
    Fig { id: "fig14", run: perf::fig14, caption: "Fig. 14: stage 2 vs stage 3 per-iteration time at 8 reliable + 8 transient (MF)" },
    Fig { id: "fig15", run: perf::fig15, caption: "Fig. 15: LDA strong scaling, 4 to 64 machines, vs ideal" },
    Fig { id: "fig16", run: perf::fig16, caption: "Fig. 16: time-per-iteration: +60 transient at iter 11, eviction at iter 35 (MF)" },
    Fig { id: "tab01", run: misc::tab01, caption: "Tab. 1: types of solution-state servers used by AgileML" },
    Fig { id: "tab02", run: misc::tab02, caption: "Tab. 2: summary of parameters used by BidBrain" },
    Fig { id: "ablate_activeps_ratio", run: perf::ablate_activeps_ratio, caption: "Ablation: fraction of transient machines hosting an ActivePS (stage 2, MF)" },
    Fig { id: "ablate_bid_delta", run: cost::ablate_bid_delta, caption: "Ablation: fixed bid delta vs BidBrain's adaptive delta sweep (2-hour jobs)" },
    Fig { id: "ablate_checkpoint_period", run: cost::ablate_checkpoint_period, caption: "Ablation: checkpoint interval vs cost/runtime (2-hour jobs, volatile market)" },
    Fig { id: "ablate_gce", run: cost::ablate_gce, caption: "Extension: Proteus on EC2 spot, GCE preemptible, and both (2-hour jobs)" },
    Fig { id: "ablate_objective", run: cost::ablate_objective, caption: "Ablation: cost-per-work objective vs minimal-footprint (raw cost) provisioning" },
    Fig { id: "ablate_stage_thresholds", run: perf::ablate_stage_thresholds, caption: "Ablation: best stage per transient:reliable ratio (MF, 64 machines)" },
    Fig { id: "extra_market_mix", run: misc::extra_market_mix, caption: "Extra: where 20-hour jobs buy capacity: Proteus vs the standard strategy" },
];

/// Prints a figure header.
pub fn header(out: Out, caption: &str) -> io::Result<()> {
    let rule = "=".repeat(64);
    writeln!(out, "{rule}\n{caption}\n{rule}")
}

/// The `figs` command line: no argument lists the table, `all` renders
/// it in order, anything else is the ids to render. An id the table
/// does not hold is an error naming the ones it does, raised before
/// anything is rendered.
pub fn run(args: &[String], out: Out) -> io::Result<()> {
    if args.is_empty() {
        for f in &FIGS {
            writeln!(out, "{:<26}{}", f.id, f.caption)?;
        }
    }
    let selects = |arg: &String, f: &Fig| arg == "all" || arg == f.id;
    if let Some(unknown) = args.iter().find(|a| !FIGS.iter().any(|f| selects(a, f))) {
        let ids: Vec<&str> = FIGS.iter().map(|f| f.id).collect();
        let msg = format!("unknown id `{unknown}`; known: all {}", ids.join(" "));
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    for arg in args {
        for f in FIGS.iter().filter(|f| selects(arg, f)) {
            header(out, f.caption)?;
            (f.run)(out)?;
        }
    }
    Ok(())
}

/// Standard study configuration shared by the cost figures (Figs. 1,
/// 8–10). Fewer starts than the paper's 1000 keeps regeneration to
/// seconds; raise `starts` for tighter confidence.
pub fn standard_study(job_hours: f64, starts: usize) -> StudyConfig {
    StudyConfig {
        seed: 2016,
        starts,
        job_hours,
        max_job_hours: (job_hours * 24.0).max(72.0),
        ..StudyConfig::default()
    }
}

/// A printed table whose column widths are stated once, for the header
/// and every row. The spec is `|`-separated columns, each
/// `head:width[.decimals][unit]`, right-aligned and a space apart; a
/// last column without a width names what trails each row (a bar). A
/// spec whose heads are all empty prints no header line.
struct Table<'a> {
    out: Out<'a>,
    cols: Vec<Col>,
}

struct Col {
    head: &'static str,
    width: usize,
    decimals: Option<usize>,
    unit: &'static str,
}

impl<'a> Table<'a> {
    fn new(out: Out<'a>, spec: &'static str) -> io::Result<Self> {
        let (spec, trailer) = match spec.rsplit_once('|') {
            Some((cols, trailer)) if !trailer.contains(':') => (cols, trailer),
            _ => (spec, ""),
        };
        let cols: Vec<Col> = spec.split('|').map(Col::parse).collect();
        if cols.iter().any(|c| !c.head.is_empty()) {
            let head = |c: &Col| format!("{:>1$}", c.head, c.width);
            let heads: Vec<String> = cols.iter().map(head).collect();
            let gap = if trailer.is_empty() { "" } else { "  " };
            writeln!(out, "{}{gap}{trailer}", heads.join(" "))?;
        }
        Ok(Table { out, cols })
    }

    /// Prints one row. Integers ignore a column's decimals, so counts
    /// can share a column with means.
    fn row(&mut self, cells: &[&dyn Display]) -> io::Result<()> {
        line(self.out, &self.cols, cells, "")
    }

    /// Prints one row and the bar for `value` where `max` gets 50 characters.
    fn bar_row(&mut self, cells: &[&dyn Display], value: f64, max: f64) -> io::Result<()> {
        line(self.out, &self.cols, cells, &bar(value, max))
    }

    /// Prints `rows` as label, value and a bar scaled to the largest value.
    fn bars(&mut self, rows: &[(String, f64)]) -> io::Result<()> {
        let max = rows.iter().map(|(_, v)| *v).fold(0.0, f64::max);
        rows.iter()
            .try_for_each(|(label, v)| self.bar_row(&[label, v], *v, max))
    }
}

/// One row of a table, then `tail` if there is one.
fn line(out: Out, cols: &[Col], cells: &[&dyn Display], tail: &str) -> io::Result<()> {
    debug_assert_eq!(cols.len(), cells.len());
    for (i, (c, cell)) in cols.iter().zip(cells).enumerate() {
        let sep = if i == 0 { "" } else { " " };
        let w = c.width - c.unit.len();
        match c.decimals {
            Some(d) => write!(out, "{sep}{cell:>w$.d$}{}", c.unit)?,
            None => write!(out, "{sep}{cell:>w$}{}", c.unit)?,
        }
    }
    let gap = if tail.is_empty() { "" } else { "  " };
    writeln!(out, "{gap}{tail}")
}

impl Col {
    fn parse(spec: &'static str) -> Col {
        let (head, format) = spec.rsplit_once(':').unwrap_or((spec, ""));
        let digits = format.trim_end_matches(|c: char| !c.is_ascii_digit());
        let (width, decimals) = digits.split_once('.').unwrap_or((digits, ""));
        Col {
            head,
            width: width.parse().unwrap_or(0),
            decimals: decimals.parse().ok(),
            unit: &format[digits.len()..],
        }
    }
}

/// A simple ASCII bar: 50 characters at `scale`.
fn bar(value: f64, scale: f64) -> String {
    let n = ((value / scale.max(1e-12)) * 50.0)
        .round()
        .clamp(0.0, 120.0) as usize;
    "#".repeat(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(1.0, 1.0).len(), 50);
        assert_eq!(bar(0.0, 1.0).len(), 1);
        assert!(bar(100.0, 1.0).len() <= 120);
    }

    #[test]
    fn standard_study_tracks_job_hours() {
        let c = standard_study(20.0, 10);
        assert_eq!(c.job_hours, 20.0);
        assert!(c.max_job_hours >= 100.0);
    }
}
