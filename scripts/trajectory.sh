#!/usr/bin/env bash
# Appends a change's alternating pairs to the benchmark trajectory.
#
#   scripts/trajectory.sh PARENT_BIN CHANGE_BIN SEED N SECONDS WORKLOAD...
#
# Runs `scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED N SECONDS`
# for each WORKLOAD in turn (see that script for how to build the two
# binaries), shows its output, and appends its closing JSON summary to
# `BENCH_history.jsonl` at the repository root, with two keys in front:
# `commit`, the repository's HEAD when the line was written, and
# `worktree`, `modified` when the working tree differed from HEAD (a
# change measured before it was committed: its line names its parent)
# or `clean`; and one key behind, `facts`, the working tree's structural
# facts as `scripts/facts.sh` prints them (computed once, before the
# first workload). The file is append-only, one line per workload per
# measured change; `scripts/check.sh` checks that every line parses and
# carries its keys. Stops at the first workload whose pairs fail
# (`pairs.sh` exits non-zero), appending nothing for it.
set -euo pipefail

if [ $# -lt 6 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN SEED N SECONDS WORKLOAD..." >&2
  exit 2
fi
scripts=$(cd "$(dirname "$0")" && pwd)
repo=$(dirname "$scripts")
parent=$1 change=$2 seed=$3 n=$4 seconds=$5
shift 5

commit=$(git -C "$repo" rev-parse --short=12 HEAD)
worktree=clean
if ! git -C "$repo" diff --quiet HEAD --; then
  worktree=modified
fi

facts=$("$scripts/facts.sh")

for workload in "$@"; do
  out=$("$scripts/pairs.sh" "$parent" "$change" "$workload" "$seed" "$n" "$seconds")
  echo "$out"
  summary=$(tail -n 1 <<<"$out")
  summary=${summary#\{}
  printf '{"commit": "%s", "worktree": "%s", %s, "facts": %s}\n' \
    "$commit" "$worktree" "${summary%\}}" "$facts" >>"$repo/BENCH_history.jsonl"
done
