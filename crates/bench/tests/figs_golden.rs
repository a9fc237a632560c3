//! Pins what every table and figure prints: `figs_golden.txt` is the
//! stdout of the twenty per-figure binaries `figs` replaced, recorded on
//! the commit before it in table order. `EXPERIMENTS.md` quotes it.

use std::process::Command;

use proteus_bench::{run, FIGS};

#[test]
fn figs_all_prints_the_recorded_evaluation() {
    let mut out = Vec::new();
    run(&["all".into()], &mut out).expect("every entry renders");
    let out = String::from_utf8(out).expect("figures print UTF-8");
    let golden = include_str!("figs_golden.txt");
    let mut lines = out.lines().zip(golden.lines());
    let moved = lines.find(|(got, want)| got != want);
    assert!(out == golden, "first moved line (got, want): {moved:?}");
}

#[test]
fn ids_are_unique_and_an_unknown_one_fails_naming_them() {
    let mut ids: Vec<&str> = FIGS.iter().map(|f| f.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), FIGS.len(), "duplicate id in the table");

    let figs = Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(["tab02", "fig99"])
        .output()
        .expect("figs runs");
    assert!(!figs.status.success());
    assert!(figs.stdout.is_empty(), "rendered before checking the ids");
    let stderr = String::from_utf8_lossy(&figs.stderr);
    assert!(ids.iter().all(|id| stderr.contains(id)), "{stderr}");
}
