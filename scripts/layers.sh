#!/usr/bin/env bash
# Where each benchmark workload's CPU time goes, by crate: the layer
# table of `scripts/profile.sh` for every workload in one command.
#
#   scripts/layers.sh [--json] [--repo DIR] [--seed N] [--seconds S] [WORKLOAD...]
#
# Builds the benchmark with line tables into DIR/target/lines (DIR is
# this script's repository unless --repo names another checkout, e.g. a
# parent commit's, so a before/after pair folds each side against its
# own sources), leaving DIR's normal build and its tracked
# `benchmark/Cargo.lock` as they were. Then it profiles each WORKLOAD
# (default: every workload BENCHMARK.json lists, in its order) for S
# seconds (default 6) at seed N (default 555) with `--trace 0`, and
# prints each one's table: the sample count, then the share of samples
# per crate, `harness` for `benchmark/src`. The shares are CPU time of
# all threads, not wall time, so a helper thread's work counts in full;
# the kernel rounds the sampling timer to its tick, so a 6 s run takes
# about 1 500–2 700 samples.
#
# With --json, prints one line instead:
#   {"seed": N, "seconds": S, "workloads": {"cost_study":
#     {"samples": 2321, "shares": {"bidbrain": 35.7, ...}}, ...}}
set -euo pipefail

scripts=$(cd "$(dirname "$0")" && pwd)
repo=$(dirname "$scripts")
json=0 seed=555 seconds=6
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --json) json=1 ;;
    --repo) repo=$(cd "$2" && pwd); shift ;;
    --seed) seed=$2; shift ;;
    --seconds) seconds=$2; shift ;;
    -*) echo "usage: $0 [--json] [--repo DIR] [--seed N] [--seconds S] [WORKLOAD...]" >&2; exit 2 ;;
    *) workloads+=("$1") ;;
  esac
  shift
done
if [ ${#workloads[@]} -eq 0 ]; then
  read -r -a workloads < <(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$repo/BENCHMARK.json")
fi

dir=$(mktemp -d)
# Building rewrites the tracked lock file: put it back as it was on
# every exit, a failed build's included.
cp "$repo/benchmark/Cargo.lock" "$dir/Cargo.lock"
trap 'cp "$dir/Cargo.lock" "$repo/benchmark/Cargo.lock"; rm -rf "$dir"' EXIT
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --offline --quiet \
  --manifest-path "$repo/benchmark/Cargo.toml" --target-dir "$repo/target/lines" >&2
bin=$repo/target/lines/release/proteus-benchmark

for w in "${workloads[@]}"; do
  # The layer table is the profile's first block, up to its blank line.
  PROFILE_LAYERS=crate PROFILE_TOP=0 "$scripts/profile.sh" "$bin" \
    --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null |
    awk 'NF == 0 { done = 1 } !done' >"$dir/$w.txt"
  if [ "$json" = 0 ]; then
    echo "== $w (seed $seed, $seconds s)"
    cat "$dir/$w.txt"
  fi
done

if [ "$json" = 1 ]; then
  python3 - "$dir" "$seed" "$seconds" "${workloads[@]}" <<'EOF'
import json, sys

out_dir, seed, seconds, names = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4:]
result = {"seed": seed, "seconds": seconds, "workloads": {}}
for name in names:
    lines = [l for l in open("%s/%s.txt" % (out_dir, name)).read().splitlines() if l.strip()]
    shares = {}
    for line in lines[2:]:
        share, layer = line.split(None, 1)
        shares[layer] = float(share)
    result["workloads"][name] = {"samples": int(lines[0].split()[0]), "shares": shares}
print(json.dumps(result))
EOF
fi
