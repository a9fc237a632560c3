#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, the full test suite, and
# that the benchmark still builds. Run before every push. Timings are
# not judged here: `benchmark/` (see BENCHMARK.json) measures, and every
# deterministic claim is a test.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# A syntax error in a helper script surfaces here, not mid-measurement.
echo "==> bash -n scripts/*.sh"
for script in scripts/*.sh; do
  bash -n "$script"
done

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

echo "==> all checks passed"
