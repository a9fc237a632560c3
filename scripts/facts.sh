#!/usr/bin/env bash
# Prints the structural facts the design needle counts (ROADMAP.md,
# items 2 and 4) as one JSON object on one line:
#
#   scripts/facts.sh
#   {"crate_lines": {"agileml": ..., ...}, "crate_lines_total": ...,
#    "loops": {"costsim": ..., "session": ..., "fleet": ...},
#    "loops_total": ..., "settable": ..., "pub_mod": ...}
#
# - `crate_lines`: the non-test lines of each crate's `src/`, every line
#   of a file before its first `#[cfg(test)]`. A file reached only
#   through a `#[cfg(test)]` module declaration (`#[cfg(test)] mod
#   tests;` and the files under it) is test code and counts nothing.
# - `loops`: the same count for item 2's three job-lifecycle loops:
#   costsim's `JobSim` (`sim.rs` and its queue runner `sim/queue.rs`),
#   the session (`core/src/session.rs`) and the fleet (`fleet/src/sim.rs`).
# - `settable`: the `pub` fields of every `pub struct` named *Config,
#   *Spec, *Params or *Model, and the fields of every struct variant of a
#   `pub enum` named *Kind, in the non-test part of `crates/*/src`;
#   `scripts/check.sh` pins this count.
# - `pub_mod`: the `pub mod` lines of the crates' `lib.rs` files, which
#   `scripts/check.sh` limits to a listed few.
#
# The Tier-1 test count is not among them: it takes a test run, and
# these facts are read off the sources alone, in well under a second.
# `scripts/trajectory.sh` appends the object to each line it writes.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines before the first `#[cfg(test)]` of each named file, summed.
non_test_lines() {
  awk 'FNR == 1 { skip = 0 } /#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }' "$@"
}

# What a `#[cfg(test)] mod name;` declaration reaches, as path prefixes
# one a line: `name.rs` and every file under `name/`, in the declaring
# file's directory for a lib.rs, main.rs or mod.rs, else in the
# directory named after the declaring file.
test_only_files() {
  for f in $(find crates/*/src -name '*.rs' | sort); do
    case "$f" in
      */lib.rs | */main.rs | */mod.rs) dir=$(dirname "$f") ;;
      *) dir=${f%.rs} ;;
    esac
    awk -v dir="$dir" '
      /#\[cfg\(test\)\]/ { t = 1; next }
      t && /^[[:space:]]*mod [a-z_0-9]+;/ {
        name = $0; sub(/^[[:space:]]*mod /, "", name); sub(/;.*/, "", name)
        print dir "/" name ".rs"; print dir "/" name "/"
      }
      { t = 0 }' "$f"
  done
}
test_only=$(test_only_files)

# The `.rs` files under the given directories that are not test-only.
sources() {
  find "$@" -name '*.rs' | sort | while read -r f; do
    for t in $test_only; do
      case "$f" in "$t"*) continue 2 ;; esac
    done
    echo "$f"
  done
}

crates=""
total=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  n=$(non_test_lines $(sources "${dir%/}/src"))
  crates="$crates${crates:+, }\"$crate\": $n"
  total=$((total + n))
done

costsim=$(non_test_lines crates/costsim/src/sim.rs crates/costsim/src/sim/queue.rs)
session=$(non_test_lines crates/core/src/session.rs)
fleet=$(non_test_lines crates/fleet/src/sim.rs)

settable=$(for f in $(sources crates/*/src); do
  awk '/#\[cfg\(test\)\]/ { exit }
       /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Spec|Params|Model)[[:space:]<{]/ { on = !/\}/; next }
       on && /^[[:space:]]*\}/ { on = 0; next }
       on && /^[[:space:]]*pub [a-z_0-9]+:/
       /^pub enum [A-Za-z0-9_]*Kind[[:space:]<{]/ { kind = !/\}/; next }
       kind && /^\}/ { kind = 0; next }
       kind && /^[[:space:]]*[a-z_][a-z_0-9]*:/' "$f"
done | wc -l)

pub_mod=$(cat crates/*/src/lib.rs | grep -c '^ *pub mod ' || true)

printf '{"crate_lines": {%s}, "crate_lines_total": %d, ' "$crates" "$total"
printf '"loops": {"costsim": %d, "session": %d, "fleet": %d}, "loops_total": %d, ' \
  "$costsim" "$session" "$fleet" $((costsim + session + fleet))
printf '"settable": %d, "pub_mod": %d}\n' "$settable" "$pub_mod"
