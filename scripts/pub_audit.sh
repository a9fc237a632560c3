#!/usr/bin/env bash
# A public function is interface only if non-test code calls it. The
# compiler, not a name match, decides what calls what:
#
#   scripts/pub_audit.sh
#
# 1. copies the sources (crates, src, examples, vendor, benchmark and the
#    manifests, every `target/` left out) into target/pub-audit/tree;
# 2. puts `#[deprecated(note = "AUDIT:<file>:<line>")]` above every
#    `pub fn` in the non-test part of a crates/*/src file (before the
#    file's first `#[cfg(test)]`);
# 3. runs `cargo check --lib --bins --examples` on the workspace and
#    `cargo check --lib --bins` on the benchmark package, with lints
#    capped at warn and a target directory of its own, so every call,
#    path or method use from non-test code names its callee's tag in a
#    deprecation warning;
# 4. fails on each tagged function no warning names, unless the list
#    below names it by file and name with one of three reasons: a fault
#    door, an observation hook a model, chaos or golden suite reads, or a
#    reference implementation a test compares against. An entry whose
#    function is called, or gone, fails too. An `is_empty` in a file
#    whose `len` is called passes unlisted: clippy's len_without_is_empty
#    keeps it beside that `len`.
#
# Tests, doc tests and `#[cfg(test)]` code are never compiled here, so
# they call nothing. A call from another tagged function counts, so a
# function only an uncalled one calls is reported once that one is
# deleted. Run from cold target directories it takes about six seconds
# on a 2-core host.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

allowed='
crates/agileml/src/job.rs      launch_with_faults             fault door: a job born under a message-fault plan (chaos suites)
crates/agileml/src/job.rs      warn_only                      fault door: a provider warning with no driver wait
crates/agileml/src/job.rs      fail_nodes_async               fault door: a crash that does not wait for its recovery
crates/agileml/src/job.rs      wait_event                     fault door: awaits what warn_only and fail_nodes_async start
crates/agileml/src/job.rs      clear_faults                   fault door: releases held messages before a model is judged
crates/agileml/src/job.rs      fault_stats                    fault door: proves a chaos plan injected something
crates/agileml/src/job.rs      traffic_matrix                 observation hook: the transitions golden and traffic-direction suites read who sent to whom
crates/bidbrain/src/forecast.rs hazard                        observation hook: the forecast and session tests read one pair
crates/core/src/session.rs     inject_failure                 fault door: kills a spot holding under a running session
crates/core/src/session.rs     inject_reliable_failure        fault door: kills a reliable machine under a running session
crates/core/src/session.rs     inject_total_reliable_failure  fault door: kills the whole reliable tier under a session
crates/fleet/src/sim.rs        set_recorder                   observation hook: the golden, determinism and active-set suites read the fleet timeline
crates/fleet/src/sim.rs        set_fault_plan                 fault door: the chaos, golden and fairness suites install provider faults
crates/fleet/src/sim.rs        gang_owner                     observation hook: the active-set suite checks the owner table against its model
crates/fleet/src/sim.rs        inject_provider_event          fault door: the active-set suite routes events naming an old gang or a reliable machine
crates/mlapps/src/data.rs      blobs                          reference implementation: K-means data, the fourth app the golden, alloc and elasticity suites train
crates/mlapps/src/kmeans.rs    new                            reference implementation: K-means, the fourth app the golden, alloc and elasticity suites train
crates/mlapps/src/train.rs     run                            reference implementation: the sequential run the golden and distributed-quality suites compare against
crates/mlapps/src/train.rs     params                         observation hook: trainer tests read the reference model
crates/obs/src/recorder.rs     counter                        observation hook: obs tests read a counter (goes with counter_add)
crates/ps/src/cache.rs         add_lincomb_pair               reference implementation: the keyed step the fused slab path is checked against
crates/ps/src/cache.rs         has_pending                    observation hook: the cache model suite reads unflushed state
crates/ps/src/keyset.rs        run_count                      observation hook: KeySet tests check the runs compress
crates/ps/src/keyset.rs        wire_bytes                     observation hook: the batch-equivalence suite compares message sizes
crates/ps/src/shard.rs         has_dirty                      observation hook: the store model suite reads dirty state
crates/ps/src/shard.rs         keys                           observation hook: the store model suite reads the materialised keys
crates/ps/src/value.rs         wire_bytes                     observation hook: the batch-equivalence suite compares message sizes
crates/ps/src/values.rs        wire_bytes                     observation hook: the batch-equivalence and store model suites compare message sizes
crates/simnet/src/fault.rs     new                            fault door: starts the message-fault plan every chaos suite injects
crates/simnet/src/fault.rs     with_rule                      fault door: builds the message faults every chaos suite injects
crates/simtime/src/pool.rs     helpers_started                observation hook: the parallel-dispatch suites see helpers wake
'
reasons='fault door|observation hook|reference implementation'

work=$PWD/target/pub-audit
tree=$work/tree
rm -rf "$tree"
mkdir -p "$tree"
tar -cf - --exclude=target --exclude=benchmark/out \
    Cargo.toml Cargo.lock crates src examples vendor benchmark | tar -xf - -C "$tree"

# Step 2: tag, and list every tag as "file:line name".
: >"$work/tagged"
for f in $(cd "$tree" && find crates/*/src -name '*.rs' | sort); do
  awk -v file="$f" -v list="$work/tagged" '
    /#\[cfg\(test\)\]/ { tests = 1 }
    !tests && match($0, /^[[:space:]]*pub (const |unsafe )*fn [a-z_0-9]+/) {
      s = substr($0, RSTART, RLENGTH); sub(/.* fn /, "", s)
      indent = $0; sub(/[^[:space:]].*/, "", indent)
      printf "%s#[deprecated(note = \"AUDIT:%s:%d\")]\n", indent, file, NR
      printf "%s:%d %s\n", file, NR, s >> list
    }
    { print }' "$tree/$f" >"$tree/$f.tagged"
  mv "$tree/$f.tagged" "$tree/$f"
done

# Step 3: every deprecation warning names one used function.
export CARGO_TARGET_DIR=$work/target RUSTFLAGS=--cap-lints=warn
(cd "$tree" && cargo check --offline --workspace --lib --bins --examples --message-format short 2>&1 &&
  cargo check --offline --manifest-path benchmark/Cargo.toml --lib --bins --message-format short 2>&1) \
  >"$work/check.log" || { cat "$work/check.log" >&2; echo "error: the tagged tree does not build" >&2; exit 1; }
grep -oE 'AUDIT:[A-Za-z0-9_./-]+:[0-9]+' "$work/check.log" | sed 's/^AUDIT://' | sort -u >"$work/used"

# Step 4: what no warning names must be listed, and what is listed must
# be a tagged function no warning names.
fail=0
while read -r file name reason; do
  [ -n "$file" ] || continue
  grep -qE "^($reasons):" <<<"$reason" ||
    { echo "error: the entry for $file $name gives no fault door, observation hook or reference implementation" >&2; fail=1; }
done <<<"$allowed"
unlisted=$(sort -k1,1 "$work/tagged" | join -v1 - "$work/used")
# Clippy's len_without_is_empty makes a type whose `len` is called keep
# an `is_empty` beside it, called or not.
len_files=$(sort -k1,1 "$work/tagged" | join - "$work/used" | awk '$2 == "len" { sub(/:[0-9]+$/, "", $1); print $1 }')
while read -r at name; do
  [ -n "$at" ] || continue
  [ "$name" = is_empty ] && grep -qxF "${at%:*}" <<<"$len_files" && continue
  if ! awk -v f="${at%:*}" -v n="$name" '$1 == f && $2 == n { found = 1 } END { exit !found }' <<<"$allowed"; then
    echo "error: $at: pub fn $name has no caller outside tests" >&2
    fail=1
  fi
done <<<"$unlisted"
while read -r file name _; do
  [ -n "$file" ] || continue
  awk -v f="$file" -v n="$name" '{ split($1, at, ":") } at[1] == f && $2 == n { found = 1 } END { exit !found }' \
    <<<"$unlisted" || { echo "error: $file lists $name, but no uncalled pub fn of that name is there" >&2; fail=1; }
done <<<"$allowed"
if [ "$fail" -ne 0 ]; then
  echo "error: delete each function above, or list it in scripts/pub_audit.sh with its reason" >&2
  exit 1
fi
echo "$(wc -l <"$work/tagged") pub fns, $(wc -l <"$work/used") called, $(grep -c . <<<"$allowed") listed"
