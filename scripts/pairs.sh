#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload: the house
# protocol for a change that claims a gain (ROADMAP.md, item 4).
#
#   scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED N SECONDS
#
# PARENT_BIN and CHANGE_BIN are two builds of the benchmark binary, each
# built in a fresh checkout of its own, the two checkouts siblings
# (`git archive REV | tar -x -C DIR`, then `cargo build --release
# --offline --manifest-path benchmark/Cargo.toml` in DIR leaves it at
# DIR/benchmark/target/release/proteus-benchmark). Where a binary is
# built moves `peak_rss_mb` by itself: the same code built in a working
# checkout read about 0.8 MB (a tenth) more on `fleet_sweep` than built
# in a fresh copy. The header prints each binary's path and size.
# Runs N pairs of `--workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0`, one fresh process per run, the parent first in odd pairs
# and the change first in even ones. Prints each run's
# `wall_us_per_unit`, both medians with the parent's quartiles, the
# change/parent ratio of the medians, how many pairs the change won,
# both sides' median `peak_rss_mb` (and its change in %) and `setup_s`,
# and the verdict on a claimed gain: the change must win at least nine
# tenths of the pairs (a tie counts for neither side), and the medians
# must differ by more than the parent's interquartile range.
#
# The last line of the output is one JSON object summing it all up:
#   {"workload": "fleet_sweep", "seed": 4242, "pairs": 10, "seconds": 3,
#    "parent_median": ..., "parent_q1": ..., "parent_q3": ...,
#    "change_median": ..., "change_q1": ..., "change_q3": ...,
#    "ratio": ..., "won": 10, "lost": 0, "tied": 0, "gain": true,
#    "peak_rss_mb_parent": ..., "peak_rss_mb_change": ...,
#    "setup_s_parent": ..., "setup_s_change": ..., "outcome_ratio": ...}
# (`ratio` is change/parent of the medians, `gain` the verdict);
# `scripts/trajectory.sh` appends it to `BENCH_history.jsonl`.
#
# Exits non-zero if a run fails, reports an incorrect result or a failed
# operation, or if `outcome_ratio` differs between any two runs; then no
# JSON line is printed. Each
# binary writes its detail file under the `benchmark/out` of the
# checkout it was built from, as any run of it does.
set -euo pipefail

if [ $# -ne 6 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD SEED N SECONDS" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 n=$5 seconds=$6
printf 'parent %s (%s bytes)\nchange %s (%s bytes)\n' \
  "$parent" "$(wc -c <"$parent")" "$change" "$(wc -c <"$change")"

# One line per run: "side pair wall outcome_ratio correct failed
# peak_rss_mb setup_s".
runs=""

# Runs one side once and adds its line to $runs, read off the result
# object the benchmark prints last.
run() {
  local side=$1 pair=$2 bin out
  bin=$parent
  [ "$side" = change ] && bin=$change
  if ! out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
    echo "error: $side run of pair $pair failed" >&2
    exit 1
  fi
  runs+=$(awk -v side="$side" -v pair="$pair" '
    function get(key, value,   s) {
      if (!match($0, "\"" key "\": *" value)) return "?"
      s = substr($0, RSTART, RLENGTH); sub(/.*: */, "", s)
      return s
    }
    { last = $0 }
    END {
      $0 = last; num = "[{]\"value\": *[^,}]*"
      print side, pair, get("wall_us_per_unit", num), get("outcome_ratio", num),
        get("correct", "[a-z]*"), get("failed", "[0-9]*"),
        get("peak_rss_mb", num), get("setup_s", num)
    }' <<<"$out")$'\n'
}

for ((pair = 1; pair <= n; pair++)); do
  if ((pair % 2 == 1)); then
    run parent "$pair"
    run change "$pair"
  else
    run change "$pair"
    run parent "$pair"
  fi
  awk -v p="$pair" '$2 == p { w[$1] = $3 }
    END { printf "pair %2d: parent %12.2f  change %12.2f  ratio %.3f\n",
          p, w["parent"], w["change"], w["change"] / w["parent"] }' <<<"$runs"
done

# Median and quartiles by linear interpolation between order statistics.
# The summary's last line is the JSON object, less `outcome_ratio`.
summary=$(awk -v workload="$workload" -v seed="$seed" -v seconds="$seconds" '
  function quantile(v, k, q,   h, i) {
    h = (k - 1) * q + 1; i = int(h)
    return i >= k ? v[k] : v[i] + (h - i) * (v[i + 1] - v[i])
  }
  # Column `col` of the runs of `side`, sorted into v[1..k]; returns k.
  function sorted(side, col, v,   k, i, j, t) {
    k = 0
    for (i = 1; i <= nr; i++) if (s[i] == side) v[++k] = c[i, col]
    for (i = 2; i <= k; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
      t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
    }
    return k
  }
  function median(side, col,   v) { return quantile(v, sorted(side, col, v), 0.5) }
  NF { nr++; s[nr] = $1; w[$1, $2] = $3; for (i = 3; i <= NF; i++) c[nr, i] = $i }
  END {
    kp = sorted("parent", 3, pv); kc = sorted("change", 3, cv)
    mp = quantile(pv, kp, 0.5); mc = quantile(cv, kc, 0.5)
    for (p = 1; p <= kp; p++) {
      won += w["change", p] < w["parent", p]
      lost += w["change", p] > w["parent", p]
    }
    q1 = quantile(pv, kp, 0.25); q3 = quantile(pv, kp, 0.75)
    printf "%s seed %s, %d pairs, wall_us_per_unit:\n", workload, seed, kp
    printf "  parent median %.2f [%.2f, %.2f]\n", mp, q1, q3
    printf "  change median %.2f [%.2f, %.2f]\n", mc, quantile(cv, kc, 0.25), quantile(cv, kc, 0.75)
    printf "  change/parent %.4f (%+.1f %%), change faster in %d/%d pairs\n",
      mc / mp, (mc / mp - 1) * 100, won, kp
    rp = median("parent", 7); rc = median("change", 7)
    printf "  peak_rss_mb median %.2f -> %.2f (%+.1f %%), setup_s median %.4f -> %.4f\n",
      rp, rc, (rc / rp - 1) * 100, median("parent", 8), median("change", 8)
    # A gain needs nine tenths of the pairs, and a median gap wider than
    # the parent'"'"'s own spread.
    wins = won * 10 >= kp * 9; gap = mp - mc; wide = gap > q3 - q1
    printf "  claim: won %d, lost %d, tied %d of %d pairs (nine tenths %s); median gap %.2f vs parent IQR %.2f (%s): %s\n",
      won, lost, kp - won - lost, kp, wins ? "met" : "not met", gap, q3 - q1,
      wide ? "wider" : "not wider", wins && wide ? "GAIN" : "NO GAIN"
    printf "{\"workload\": \"%s\", \"seed\": %s, \"pairs\": %d, \"seconds\": %s, ", workload, seed, kp, seconds
    printf "\"parent_median\": %.4f, \"parent_q1\": %.4f, \"parent_q3\": %.4f, ", mp, q1, q3
    printf "\"change_median\": %.4f, \"change_q1\": %.4f, \"change_q3\": %.4f, ",
      mc, quantile(cv, kc, 0.25), quantile(cv, kc, 0.75)
    printf "\"ratio\": %.4f, \"won\": %d, \"lost\": %d, \"tied\": %d, \"gain\": %s, ",
      mc / mp, won, lost, kp - won - lost, wins && wide ? "true" : "false"
    printf "\"peak_rss_mb_parent\": %.4f, \"peak_rss_mb_change\": %.4f, ", rp, rc
    printf "\"setup_s_parent\": %.6f, \"setup_s_change\": %.6f\n", median("parent", 8), median("change", 8)
  }' <<<"$runs")
sed '$d' <<<"$summary"

# The verdict: one outcome_ratio across every run, every result correct,
# no operation failed.
awk '
  NF && !seen[$4]++ { ratios++ }
  NF { runs++ }
  NF && ($5 != "true" || $6 != 0) {
    bad++
    printf "error: %s pair %s: correct %s, failed %s\n", $1, $2, $5, $6 > "/dev/stderr"
  }
  END {
    if (ratios != 1) {
      print "error: outcome_ratio differs between runs:" > "/dev/stderr"
      for (r in seen) printf "  %s in %d runs\n", r, seen[r] > "/dev/stderr"
      exit 1
    }
    for (r in seen) printf "  outcome_ratio %s in all %d runs\n", r, runs
    exit bad > 0
  }' <<<"$runs"

printf '%s, "outcome_ratio": %s}\n' "$(tail -n 1 <<<"$summary")" "$(awk 'NF { print $4; exit }' <<<"$runs")"
