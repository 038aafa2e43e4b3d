#!/usr/bin/env bash
# Alternating A/B pairs of the benchmark: <base> (a git ref) against this
# working tree, on the command BENCHMARK.json declares (seed 1, its
# run_seconds, untraced). Pair i runs every workload once per side, the
# base first in odd pairs and this tree first in even ones.
#
# Prints one row per workload and end-to-end metric: base median, this
# tree's median, the relative change, the base runs' IQR, the pairs this
# tree won (ties count for neither side) and a verdict against the
# metric's BENCHMARK.json bound: `worse` when the median moved against the
# metric by more than the bound, `unresolved` when the base's own IQR is
# wider than the bound (unless every run of this tree beat every base run),
# `bit-equal` when every pair printed the same value, else `ok`. A last
# line per workload counts `correct` runs and failed operations per side.
#
# Usage: scripts/ab.sh [<base>=HEAD~1] [<pairs>=10] [<workload>...]
# Output and builds go under target/ab/ (the base's tree, its own target
# dir, and one JSON line per run in target/ab/runs/).
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
pairs="${2:-10}"
shift $(($# < 2 ? $# : 2))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(stream_rt lake_query ingest_convert txn_mixed)
seconds="$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')"
here="$PWD"
work="$here/target/ab"

rm -rf "$work/tree" "$work/runs"
mkdir -p "$work/tree" "$work/runs"
git archive "$base" | tar -x -C "$work/tree"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
(cd "$work/tree" && CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml)

run() { # side workload pair
    local dir="$here" bin="$here/benchmark/target/release/slbench"
    if [ "$1" = base ]; then dir="$work/tree" bin="$work/target/release/slbench"; fi
    (cd "$dir" && "$bin" --workload "$2" --seed 1 --seconds "$seconds" --trace 0 2>/dev/null |
        tail -n 1) >"$work/runs/$1.$2.$3.json" || true
}

for i in $(seq 1 "$pairs"); do
    for wl in "${workloads[@]}"; do
        if [ $((i % 2)) = 1 ]; then
            run base "$wl" "$i" && run here "$wl" "$i"
        else
            run here "$wl" "$i" && run base "$wl" "$i"
        fi
    done
    echo "ab: pair $i/$pairs done" >&2
done

# metric name, direction and bound, as BENCHMARK.json declares them
spec="$(tr -d '\n' <BENCHMARK.json | grep -o '"end_to_end": *\[[^]]*\]' |
    grep -o '"name": *"[a-z0-9_]*", *"unit": *"[^"]*", *"better": *"[a-z]*", *"bound": *[0-9.]*' |
    sed -E 's/"name": *"([^"]*)".*"better": *"([^"]*)", *"bound": *([0-9.]*)/\1 \2 \3/')"

printf '%-15s %-13s %12s %12s %8s %10s %6s  %s\n' \
    workload metric base here change base_iqr wins verdict
for wl in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        for side in base here; do
            # one "side pair metric value" line per metric, plus correctness
            f="$work/runs/$side.$wl.$i.json"
            grep -o '"[a-z0-9_]*": {"value": [^,]*' "$f" |
                sed -E "s/\"([a-z0-9_]*)\": \{\"value\": (.*)/$side $i \1 \2/" || true
            printf '%s %s correct %s\n' "$side" "$i" \
                "$(grep -o '"correct": [a-z]*' "$f" | grep -o '[a-z]*$' || echo missing)"
            printf '%s %s failed %s\n' "$side" "$i" \
                "$(grep -o '"failed": [0-9]*' "$f" | grep -o '[0-9]*$' || echo 0)"
        done
    done | awk -v wl="$wl" -v pairs="$pairs" -v spec="$spec" '
        function median(a, n) { sorted(a, n); return q[int((n + 1) / 2)] * 0.5 + q[int(n / 2) + 1] * 0.5 }
        function sorted(a, n,   i, j, x) {
            for (i = 1; i <= n; i++) q[i] = a[i]
            for (i = 2; i <= n; i++) { x = q[i]; for (j = i - 1; j >= 1 && q[j] > x; j--) q[j + 1] = q[j]; q[j + 1] = x }
        }
        function quart(a, n, p,   pos, lo) { sorted(a, n); pos = 1 + (n - 1) * p; lo = int(pos); return q[lo] + (pos - lo) * (q[lo + 1] - q[lo]) }
        { v[$1, $2, $3] = $4 }
        END {
            ns = split(spec, s, "\n")
            for (k = 1; k <= ns; k++) {
                split(s[k], f, " "); m = f[1]; better = f[2]; bound = f[3]
                wins = 0; same = 1
                for (i = 1; i <= pairs; i++) {
                    b[i] = v["base", i, m]; h[i] = v["here", i, m]
                    if (b[i] != h[i]) same = 0
                    if ((better == "lower" && h[i] < b[i]) || (better == "higher" && h[i] > b[i])) wins++
                }
                bmin = b[1]; bmax = b[1]; hmin = h[1]; hmax = h[1]
                for (i = 2; i <= pairs; i++) {
                    if (b[i] < bmin) bmin = b[i]; if (b[i] > bmax) bmax = b[i]
                    if (h[i] < hmin) hmin = h[i]; if (h[i] > hmax) hmax = h[i]
                }
                beat = (better == "lower") ? (hmax < bmin) : (hmin > bmax)
                mb = median(b, pairs); mh = median(h, pairs)
                iqr = quart(b, pairs, 0.75) - quart(b, pairs, 0.25)
                rel = (mb != 0) ? (mh - mb) / mb : 0
                worse = (better == "lower") ? rel : -rel
                verdict = "ok"
                if (same) verdict = "bit-equal"
                else if (worse > bound) verdict = "worse"
                else if (mb != 0 && iqr / mb > bound && !beat) verdict = "unresolved"
                printf "%-15s %-13s %12.4g %12.4g %+7.1f%% %10.4g %3d/%-2d  %s\n", \
                    wl, m, mb, mh, 100 * rel, iqr, wins, pairs, verdict
            }
            cb = ch = fb = fh = 0
            for (i = 1; i <= pairs; i++) {
                cb += (v["base", i, "correct"] == "true"); ch += (v["here", i, "correct"] == "true")
                fb += v["base", i, "failed"]; fh += v["here", i, "failed"]
            }
            printf "%-15s correct runs base %d/%d here %d/%d, failed ops base %d here %d\n", \
                wl, cb, pairs, ch, pairs, fb, fh
        }'
done
