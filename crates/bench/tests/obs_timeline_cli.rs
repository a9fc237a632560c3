//! `obs_timeline` treats an empty `PROTEUS_OBS_OUT` as unset, as the
//! library's `export_path` does: with no argument either, it prints its
//! usage and exits 2 instead of trying to read a file named "".

use std::process::Command;

#[test]
fn empty_export_variable_and_no_argument_print_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_obs_timeline"))
        .env("PROTEUS_OBS_OUT", "")
        .output()
        .expect("obs_timeline runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("usage: obs_timeline <export.jsonl> [samples.csv]"),
        "stderr: {stderr}"
    );
}
