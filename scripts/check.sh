#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
# Run before every push; CI runs the same three commands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

# The root manifest's `default-members` is the whole workspace, so this
# is every crate's unit, integration, property, golden and chaos suite
# (571 tests in 95 targets; `--workspace` adds the vendored stubs' own
# 20), the same set the Tier-1 `cargo test -q` runs. One fixed
# chaos seed keeps the wall-clock cost small; nightly/deep runs set
# PROTEUS_CHAOS_FULL=1 instead. Everything in it is deterministic: the
# training job runs on the discrete-event core, so chaos, session and
# restart suites replay bit for bit and a failure is a bug, not a flake.
echo "==> cargo test -q (whole workspace, fixed chaos seed)"
PROTEUS_CHAOS_SEEDS=3 cargo test -q

# benchmark/ is a package of its own that a gain-claiming change may not
# edit, and the micro-benches are no test target: build both, so a
# public-API change that breaks either fails here and not at the next
# benchmark run.
echo "==> benchmark/ and micro-benches still build"
cargo build -q --release --offline --manifest-path benchmark/Cargo.toml
cargo bench -q -p proteus-bench --bench micro --no-run

# Library crates report through the obs recorder, not stdout. The only
# allowed direct prints are doc-comment examples and the two
# export-write-failure warnings (a failed PROTEUS_OBS_OUT write has no
# recorder to report into). Bench/figure binaries print by design.
echo "==> no bare println!/eprintln! in library crates"
if grep -rn "println!\|eprintln!" crates/*/src --include="*.rs" \
    | grep -v "^crates/bench/" \
    | grep -v "///" | grep -v "//!" \
    | grep -v "warning: could not write"; then
  echo "error: bare println!/eprintln! in a library crate (use the obs recorder)" >&2
  exit 1
fi

# Recording overhead guard: bench_costsim writes BENCH_obs.json with the
# recorder-on vs recorder-off comparison as wall nanoseconds per
# recorded event, beside the budget it must stay under (absolute, so a
# faster study cannot fail it; the share of wall clock is still
# reported). Wall-clock noise on a loaded CI box can push a passing
# build over the line, so one retry is allowed; two consecutive
# failures mean a real regression.
echo "==> obs overhead smoke (ns/event within budget)"
obs_ok=0
for attempt in 1 2; do
  PROTEUS_BENCH_STARTS=25 cargo run -q --release -p proteus-bench --bin bench_costsim >/dev/null
  ons=$(sed -n 's/.*"ns_per_event": \([0-9.]*\).*/\1/p' BENCH_obs.json)
  obudget=$(sed -n 's/.*"budget_ns_per_event": \([0-9.]*\).*/\1/p' BENCH_obs.json)
  pct=$(sed -n 's/.*"overhead_pct": \([0-9.]*\).*/\1/p' BENCH_obs.json)
  echo "    attempt ${attempt}: ${ons} ns/event (budget ${obudget}), ${pct}% of the study"
  if awk -v n="$ons" -v b="$obudget" 'BEGIN { exit !(b > 0 && n <= b) }'; then
    obs_ok=1
    break
  fi
done
if [ "$obs_ok" -ne 1 ]; then
  echo "error: obs recording cost per event exceeded its budget twice (see BENCH_obs.json)" >&2
  exit 1
fi

# PS data-plane regression gate: bench_ps writes BENCH_ps.json with the
# batched hot path timed against the per-key baseline (seed hash-map
# store, per-key messages, deep-copied payloads). The batched path must
# never be slower than the baseline; it also self-checks bit-identical
# store state and identical logical wire volume. One retry absorbs
# wall-clock noise on a loaded box.
echo "==> PS data plane bench (batched >= per-key baseline)"
ps_ok=0
for attempt in 1 2; do
  cargo run -q --release -p proteus-bench --bin bench_ps >/dev/null
  spd=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' BENCH_ps.json)
  echo "    attempt ${attempt}: batched speedup ${spd}x"
  if awk -v s="$spd" 'BEGIN { exit !(s >= 1.0) }'; then
    ps_ok=1
    break
  fi
done
if [ "$ps_ok" -ne 1 ]; then
  echo "error: batched PS data plane slower than the per-key baseline twice (see BENCH_ps.json)" >&2
  exit 1
fi

# Eviction-defense gate: bench_forecast writes BENCH_forecast.json with
# the forecaster's replay accuracy and the proactive (adaptive
# checkpoint) vs reactive (fixed checkpoint) study. Both sides are
# sim-time deterministic, so no retry is needed: the proactive scheme
# must save work over the reactive baseline, and replay recall must stay
# useful — a forecaster that misses evictions defends nothing.
echo "==> eviction defense bench (proactive saves work, recall >= 0.7)"
PROTEUS_BENCH_STARTS=50 cargo run -q --release -p proteus-bench --bin bench_forecast >/dev/null
saved=$(sed -n 's/.*"work_saved_hours": \(-\{0,1\}[0-9.]*\).*/\1/p' BENCH_forecast.json)
recall=$(sed -n 's/.*"recall": \([0-9.]*\).*/\1/p' BENCH_forecast.json)
echo "    work saved ${saved} job-hours, replay recall ${recall}"
if ! awk -v s="$saved" 'BEGIN { exit !(s > 0.0) }'; then
  echo "error: proactive checkpointing saves less work than the reactive baseline (see BENCH_forecast.json)" >&2
  exit 1
fi
if ! awk -v r="$recall" 'BEGIN { exit !(r >= 0.7) }'; then
  echo "error: forecast replay recall below 0.7 (see BENCH_forecast.json)" >&2
  exit 1
fi

# Simnet scale gate: bench_simnet writes BENCH_simnet.json comparing
# the discrete-event core driving a 1000-node broadcast/convergence
# workload against the thread-per-node cluster at 100 nodes. The event
# core runs 10x the fleet and ~10x the messages yet must still beat the
# thread core's wall clock (speedup >= 1.0 here; ~2x in practice). One
# retry absorbs wall-clock noise on a loaded box.
echo "==> simnet scale bench (1000-node event core beats 100-node thread core)"
simnet_ok=0
for attempt in 1 2; do
  cargo run -q --release -p proteus-bench --bin bench_simnet >/dev/null
  nodes=$(sed -n 's/.*"event_nodes": \([0-9]*\).*/\1/p' BENCH_simnet.json)
  spd=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' BENCH_simnet.json)
  echo "    attempt ${attempt}: ${nodes} event-core nodes, speedup ${spd}x"
  if awk -v n="$nodes" -v s="$spd" 'BEGIN { exit !(n >= 1000 && s >= 1.0) }'; then
    simnet_ok=1
    break
  fi
done
if [ "$simnet_ok" -ne 1 ]; then
  echo "error: event core failed the 1000-node scale gate twice (see BENCH_simnet.json)" >&2
  exit 1
fi

# Fleet scale gate: bench_fleet writes BENCH_fleet.json from a
# 500-trial shared-market sweep. Four things must hold: the sweep
# completes at full trial count, scheduler bookkeeping stays inside the
# per-round budget bench_fleet records beside it (absolute, so a faster
# sweep cannot fail it), the fleet's realized $/work beats the
# per-job-independent baseline, and the outcome is bit-identical
# across thread counts. One retry absorbs wall-clock noise in the
# bookkeeping time; the other three legs are deterministic.
echo "==> fleet scale bench (500 trials, sched within budget, beats per-job baseline)"
fleet_ok=0
for attempt in 1 2; do
  cargo run -q --release -p proteus-bench --bin bench_fleet >/dev/null
  ftrials=$(sed -n 's/.*"trials": \([0-9]*\).*/\1/p' BENCH_fleet.json)
  fsched=$(sed -n 's/.*"sched_us_per_round": \([0-9.]*\).*/\1/p' BENCH_fleet.json)
  fbudget=$(sed -n 's/.*"sched_budget_us_per_round": \([0-9.]*\).*/\1/p' BENCH_fleet.json)
  fcpw=$(sed -n 's/.*"fleet_cost_per_work": \([0-9.]*\).*/\1/p' BENCH_fleet.json)
  bcpw=$(sed -n 's/.*"baseline_cost_per_work": \([0-9.]*\).*/\1/p' BENCH_fleet.json)
  fdet=$(sed -n 's/.*"deterministic": \(true\|false\).*/\1/p' BENCH_fleet.json)
  echo "    attempt ${attempt}: ${ftrials} trials, sched ${fsched}us/round (budget ${fbudget}), \$${fcpw}/work vs \$${bcpw}/work baseline, deterministic=${fdet}"
  if [ "$fdet" = "true" ] \
    && awk -v n="$ftrials" 'BEGIN { exit !(n >= 500) }' \
    && awk -v s="$fsched" -v b="$fbudget" 'BEGIN { exit !(b > 0 && s < b) }' \
    && awk -v f="$fcpw" -v b="$bcpw" 'BEGIN { exit !(f < b) }'; then
    fleet_ok=1
    break
  fi
done
if [ "$fleet_ok" -ne 1 ]; then
  echo "error: fleet scale gate failed twice (see BENCH_fleet.json)" >&2
  exit 1
fi

echo "==> all checks passed"
