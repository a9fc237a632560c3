#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, the full test suite, and
# that the benchmark still builds. Run before every push. Timings are
# not judged here: `benchmark/` (see BENCHMARK.json) measures, and every
# deterministic claim is a test.
set -euo pipefail
cd "$(dirname "$0")/.."

# Run in a known environment, as `benchmark/src/sys.rs::scrub_env` does:
# each step below sets the PROTEUS_* variables it means. An ambient one
# would make every session test write one export (PROTEUS_OBS_OUT) or
# change what the gate runs (PROTEUS_CHAOS_FULL, PROTEUS_THREADS).
for var in $(compgen -e); do
  case "$var" in PROTEUS_*) unset "$var" ;; esac
done

echo "==> cargo fmt --check"
cargo fmt --check

# A syntax error in a helper script surfaces here, not mid-measurement.
echo "==> bash -n scripts/*.sh"
for script in scripts/*.sh; do
  bash -n "$script"
done

# The profiler's layer fold, on a canned stack set: rustc's
# `library/stdarch/crates/` and a sibling checkout are not crates, a
# `std` frame goes to its nearest repository caller, `benchmark/src`
# is the harness.
echo "==> scripts/layers.py on scripts/fixtures/layers.stacks"
for mode in crate file; do
  python3 scripts/layers.py /work/repo "$mode" <scripts/fixtures/layers.stacks |
    diff -u "scripts/fixtures/layers.$mode.txt" -
done

# The benchmark trajectory (scripts/trajectory.sh) is append-only JSON
# lines: each must parse and carry every key a later reader compares.
echo "==> BENCH_history.jsonl lines parse and carry their keys"
python3 - BENCH_history.jsonl <<'PY'
import json, sys

keys = {
    "commit", "worktree", "workload", "seed", "pairs", "seconds",
    "parent_median", "parent_q1", "parent_q3",
    "change_median", "change_q1", "change_q3",
    "ratio", "won", "lost", "tied", "gain",
    "peak_rss_mb_parent", "peak_rss_mb_change",
    "setup_s_parent", "setup_s_change", "outcome_ratio",
}
with open(sys.argv[1]) as history:
    for n, line in enumerate(history, 1):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"error: {sys.argv[1]}:{n} is not JSON: {e}")
        missing = keys - row.keys() if isinstance(row, dict) else keys
        if missing:
            sys.exit(f"error: {sys.argv[1]}:{n} lacks {sorted(missing)}")
PY

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A doc link to a deleted, renamed or private item fails here instead of
# rotting in the rendered docs.
echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

# The root manifest's `default-members` is the whole workspace, so this
# is every crate's unit, integration, property, golden and chaos suite,
# the same set the Tier-1 `cargo test -q` runs. One fixed chaos seed
# keeps the wall-clock cost small; nightly/deep runs set
# PROTEUS_CHAOS_FULL=1 instead. Everything in it is deterministic: the
# training job runs on the discrete-event core, so chaos, session and
# restart suites replay bit for bit and a failure is a bug, not a flake.
echo "==> cargo test -q (whole workspace, fixed chaos seed)"
PROTEUS_CHAOS_SEEDS=3 cargo test -q

# The data-plane goldens claim "same bits in debug and release", and an
# offset or length overflow only wraps silently in release: run the
# parameter server, AgileML and the apps' suites optimised as well.
echo "==> cargo test -q --release (ps, mlapps)"
cargo test -q --release -p proteus-ps -p proteus-mlapps

# The decision-step goldens (the cost study's, the session's and the
# fleet's) claim the same bits in debug and release, so a debug run alone
# cannot back that claim: run them optimised too.
echo "==> cargo test -q --release (costsim, session and fleet goldens)"
cargo test -q --release -p proteus-costsim -p proteus -p proteus-fleet --test golden

# AgileML's chaos, pre-drain and reliable-tier chaos suites over their
# whole seed sweep (3-23): optimised, the sweep takes about two seconds
# once built on a 2-core host, so the fixed seed above buys nothing here.
echo "==> cargo test -q --release (agileml, full chaos seed sweep)"
PROTEUS_CHAOS_FULL=1 cargo test -q --release -p proteus-agileml

# The session's market chaos suite over its whole seed sweep (3-23):
# droughts, throttling, slow boots and launch-then-die, each ending in
# the report-against-export check. Optimised, it takes about 0.3 s once
# built on a 2-core host.
echo "==> cargo test -q --release (proteus market_chaos, full chaos seed sweep)"
PROTEUS_CHAOS_FULL=1 cargo test -q --release -p proteus --test market_chaos

# The fleet's chaos suite over its whole seed sweep (3, 5, 7, 11, 13, 17,
# 19, 23): 120 jobs through eviction storms, droughts and the full fault
# stack, each ending with every job typed. Optimised, it takes about
# 0.1 s once built on a 2-core host.
echo "==> cargo test -q --release (fleet_chaos, full chaos seed sweep)"
PROTEUS_CHAOS_FULL=1 cargo test -q --release -p proteus-fleet --test fleet_chaos

# The root examples drive the public API end to end, and several
# implement or train an `MlApp`: each must run to the end. Optimised,
# each takes 3-13 ms once built.
echo "==> root examples run to the end (release)"
cargo build -q --release --examples
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  if ! out=$(cargo run -q --release --example "$name" 2>&1); then
    echo "$out" >&2
    echo "error: example $name exited non-zero" >&2
    exit 1
  fi
done

# benchmark/ is a package of its own that a gain-claiming change may not
# edit: build it, so a public-API change that breaks it fails here and
# not at the next benchmark run. (The build rewrites the tracked
# benchmark/Cargo.lock, which still lists edges the crates dropped:
# `git checkout` it before committing.)
echo "==> benchmark/ still builds"
cargo build -q --release --offline --manifest-path benchmark/Cargo.toml

# Its own tests (14, under a second once built), among them contract.rs's
# check that BENCHMARK.json is spec.rs rendered. The workspace's
# `cargo test` above does not reach a package outside the workspace.
echo "==> benchmark/ tests"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Its quick pass (every workload once, plain and traced, on tiny inputs,
# well under a second) runs the benchmark's own correctness checks:
# study results bit-equal on 1 and 2 executor threads, exact results
# repeating across reps, recording leaving results unchanged. It exits
# non-zero when any of them fails.
echo "==> benchmark/ quick pass"
if ! quick=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
    --quick --seconds 0 2>&1); then
  echo "$quick" >&2
  echo "error: the benchmark's quick pass failed" >&2
  exit 1
fi

# Library crates report through the obs recorder, not stdout. The only
# allowed direct prints are doc-comment examples and the two
# export-write-failure warnings (a failed PROTEUS_OBS_OUT write has no
# recorder to report into). The figure binaries print by design.
echo "==> no bare println!/eprintln! in library crates"
if grep -rn "println!\|eprintln!" crates/*/src --include="*.rs" \
    | grep -v "^crates/bench/" \
    | grep -v "///" | grep -v "//!" \
    | grep -v "warning: could not write"; then
  echo "error: bare println!/eprintln! in a library crate (use the obs recorder)" >&2
  exit 1
fi

# A happening is counted by the event it emits: a fold over the stream
# (a report, a tally) counts it. A recorder counter bumped beside the
# event would be a second tally of the same happening.
echo "==> no recorder counter_add( in library crates outside crates/obs"
if grep -rn "counter_add(" crates/*/src --include="*.rs" | grep -v "^crates/obs/"; then
  echo "error: counter_add( outside crates/obs (emit an event and fold it instead)" >&2
  exit 1
fi

# The AVX2 row kernels equal the portable loops bit for bit only because
# nothing fuses a multiply into an add: a fused multiply-add rounds once
# where the portable loop rounds twice.
echo "==> no fused multiply-add in crates/ps or crates/mlapps"
if grep -rn 'fmadd\|fmsub\|fnmadd\|fnmsub\|mul_add\|enable = "[^"]*fma' crates/ps/src crates/mlapps/src; then
  echo "error: fused multiply-add in a row-kernel path (the twins must stay bit-identical)" >&2
  exit 1
fi

# A manifest edge must name a crate the owning package's sources mention.
echo "==> no [dependencies] edge onto a crate the package never names"
for m in Cargo.toml crates/*/Cargo.toml; do
  d=$(dirname "$m")
  for dep in $(awk '/^\[/{on=($0=="[dependencies]"||$0=="[dev-dependencies]")} on&&/^[a-z]/{sub(/[. =].*/,"");print}' "$m"); do
    grep -rqw --include="*.rs" "${dep//-/_}" "$d/src" $(ls -d "$d/tests" "$d/examples" 2>/dev/null) \
      || { echo "error: $m lists $dep but $d never mentions it" >&2; exit 1; }
  done
done

# A [workspace.dependencies] entry must be inherited by some manifest:
# a vendored stub must not outlive its last edge.
echo "==> no [workspace.dependencies] entry that no manifest inherits"
for dep in $(awk '/^\[/{on=($0=="[workspace.dependencies]")} on&&/^[a-z]/{sub(/[ =].*/,"");print}' Cargo.toml); do
  grep -qE "^$dep(\.workspace| = \{ *workspace)" Cargo.toml crates/*/Cargo.toml \
    || { echo "error: [workspace.dependencies] lists $dep but no manifest inherits it" >&2; exit 1; }
done

# A vendored stub lives only as long as the workspace edge onto it: one
# whose last user left must go as files too.
echo "==> every vendor/ stub is a [workspace.dependencies] path"
for v in vendor/*/; do
  v=${v%/}
  awk '/^\[/{on=($0=="[workspace.dependencies]")} on' Cargo.toml | grep -qF "path = \"$v\"" \
    || { echo "error: $v is no [workspace.dependencies] path (delete the stub)" >&2; exit 1; }
done

# The thread-per-node Cluster is only the yardstick the benchmark times
# a hop against; everything else runs on SimCluster. Nothing in the
# workspace outside simnet's own sources may build on it (benchmark/ is
# a package of its own, and its probe is the yardstick's one caller).
echo "==> no thread Cluster, ClusterHandle or NodeCtx outside crates/simnet/src"
if grep -rnE --include="*.rs" '\bCluster(::|<)|\bClusterHandle\b|\bNodeCtx\b' crates src tests examples \
    | grep -v "^crates/simnet/src/"; then
  echo "error: the thread Cluster used outside crates/simnet/src (use SimCluster)" >&2
  exit 1
fi

# A crate's interface is its lib.rs re-export list: modules are private,
# so rustc's dead_code lint sees every item nothing outside tests uses.
# A module stays `pub` only where a caller names it by its path:
#   mlapps::{app, data, lda, mf, mlr, train}  benchmark/ names these paths
#   simtime::rng, perfmodel::presets          benchmark/ names these paths
#   ps::kernels                               mlapps calls the kernels through it
echo "==> no pub mod in a crate's lib.rs outside the listed ones"
allowed="mlapps:app mlapps:data mlapps:lda mlapps:mf mlapps:mlr mlapps:train simtime:rng perfmodel:presets ps:kernels"
for lib in crates/*/src/lib.rs; do
  crate=$(basename "$(dirname "$(dirname "$lib")")")
  for m in $(sed -n 's/^ *pub mod \([a-z_0-9]*\).*/\1/p' "$lib"); do
    case " $allowed " in
      *" $crate:$m "*) ;;
      *) echo "error: $lib declares pub mod $m (make it private and re-export what callers name)" >&2; exit 1 ;;
    esac
  done
done

# A public function is interface only if non-test code calls it: a
# `pub fn` in the non-test part of a crates/*/src file (before its first
# `#[cfg(test)]`) must be called (`name(`, `.name(`, `name::<T>(`) or
# named by path (`::name`) somewhere in non-test code (crates/*/src,
# benchmark/src, examples/; comments, `use` lines and definitions do not
# count), or be listed below with its reason. A bare word does not count:
# a field or a local of the same name (`self.params`) would hide the
# function. The check is a floor, not a proof: a test-only function that
# shares its name with a called one (a second `new`, `len` or
# `set_faults`) passes it.
echo "==> no pub fn that only tests call, outside the listed ones"
test_only_api='
launch_with_faults             fault door: a job born under a message-fault plan (chaos suites)
warn_only                      fault door: a provider warning with no driver wait
fail_nodes_async               fault door: a crash that does not wait for its recovery
wait_event                     fault door: awaits what warn_only and fail_nodes_async start
clear_faults                   fault door: releases held messages before a model is judged
fault_stats                    fault door: proves a chaos plan injected something
inject_failure                 fault door: kills a spot holding under a running session
inject_reliable_failure        fault door: kills a reliable machine under a running session
inject_total_reliable_failure  fault door: kills the whole reliable tier under a session
has_dirty                      observation hook: the store model suite reads dirty state
has_pending                    observation hook: the cache model suite reads unflushed state
helpers_started                observation hook: the parallel-dispatch suites see helpers wake
run_count                      observation hook: KeySet tests check the runs compress
gang_owner                     observation hook: the active-set suite checks the fleet owner table against its model
inject_provider_event          fault door: the active-set suite routes events naming an old gang or a reliable machine
hazard                         observation hook: the forecast and session tests read one pair
counter                        observation hook: obs tests read a counter (goes with counter_add)
params                         observation hook: trainer tests read the model (costsim calls BidBrain::params)
add_lincomb_pair               reference step the fused slab path is checked against
with_rule                      builds the message faults every chaos suite injects
wire_bytes                     DenseVec, KeySet and Values message sizes, kept for sized messages
blobs                          K-means data, the fourth app, for its fingerprint and tests
'
allowed=" $(awk 'NF { printf "%s ", $1 }' <<< "$test_only_api")"
referenced=$(for f in $(find crates/*/src benchmark/src examples -name '*.rs' | sort); do
  awk '/#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*\/\// { next }
       in_use { in_use = !/;/; next }
       /^[[:space:]]*(pub(\([a-z]+\))? )?use / { in_use = !/;/; next }
       { gsub(/fn +[a-z_0-9]+/, ""); print }' "$f"
done | grep -oE '::[a-z_0-9]+|\b[a-z_0-9]+(::<[^>]*>)?\(' | sed -E 's/^:://; s/(::<.*)?\($//' | sort -u)
referenced=" $(tr '\n' ' ' <<< "$referenced")"
test_only=0
for f in $(find crates/*/src -name '*.rs' | sort); do
  for name in $(awk '/#\[cfg\(test\)\]/ { exit }
      match($0, /^[[:space:]]*pub (const |unsafe )*fn [a-z_0-9]+/) {
        s = substr($0, RSTART, RLENGTH); sub(/.* fn /, "", s); print s
      }' "$f"); do
    case "$referenced$allowed" in
      *" $name "*) ;;
      *) echo "error: $f: pub fn $name has no caller outside tests" >&2; test_only=1 ;;
    esac
  done
done
if [ "$test_only" -ne 0 ]; then
  echo "error: delete each function above, or list it with its reason" >&2
  exit 1
fi

# Every settable value is an option a reader has to understand. Count
# the `pub` fields of every `pub struct` named *Config, *Spec, *Params
# or *Model, and the fields of every struct variant of a `pub enum`
# named *Kind, in the non-test part of crates/*/src (before each file's
# first `#[cfg(test)]`). A value no caller turns is a `const` beside its
# one user, not a field. A new knob changes this pin, and CHANGES.md
# records its reason.
echo "==> settable values in config structs and kind enums are pinned at 99"
settable=$(for f in $(find crates/*/src -name '*.rs' | sort); do
  awk '/#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Spec|Params|Model)[[:space:]<{]/ { on = !/\}/; next }
       on && /^[[:space:]]*\}/ { on = 0; next }
       on && /^[[:space:]]*pub [a-z_0-9]+:/
       /^pub enum [A-Za-z0-9_]*Kind[[:space:]<{]/ { kind = !/\}/; next }
       kind && /^\}/ { kind = 0; next }
       kind && /^[[:space:]]*[a-z_][a-z_0-9]*:/' "$f"
done | wc -l)
if [ "$settable" -ne 99 ]; then
  echo "error: $settable settable fields in *Config/*Spec/*Params/*Model structs and *Kind enums, pinned at 99" >&2
  echo "error: make an unturned value a const, or move the pin and record why in CHANGES.md" >&2
  exit 1
fi

echo "==> all checks passed"
