#!/usr/bin/env bash
# Runs the untraced benchmark N times (default 2) on one seed and
# prints, per workload and end-to-end metric, every run's value, the
# widest relative difference between two runs and the metric's bound
# from BENCHMARK.json. REPEATABILITY.md is this table for the commit
# that defined the benchmark.
#
#   bench/repeat.sh [N] [bench flags, e.g. --seed 20100301 --seconds 15]
set -euo pipefail

cd "$(dirname "$0")/.."
n=2
if [[ ${1:-} =~ ^[0-9]+$ ]]; then
    n=$1
    shift
fi
mkdir -p .bench_build
tmp=$(mktemp -d .bench_build/repeat.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

for ((run = 1; run <= n; run++)); do
    for workload in apps-fig2 catalog-search ingest-mixed restart; do
        echo "run $run of $n: $workload" >&2
        bench/run.sh --workload "$workload" --trace 0 "$@" |
            awk -v w="$workload" -v r="$run" 'NF >= 3 && $1 !~ /^[{]/ { print w, $1, r, $2 }' >>"$tmp/values"
    done
done

# BENCHMARK.json is written one key a line; a metric's bound follows
# its name.
awk '/"name":/ { gsub(/[",]/, "", $2); name = $2 } /"bound":/ { gsub(/,/, "", $2); print name, $2 }' BENCHMARK.json >"$tmp/bounds"

awk -v n="$n" '
    FNR == NR { bound[$1] = $2; next }
    {
        key = $1 " " $2
        if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
        val[key, $3] = $4
    }
    END {
        printf "| workload | metric |"
        for (r = 1; r <= n; r++) printf " run %d |", r
        printf " widest difference | bound | within |\n|---|---|"
        for (r = 1; r <= n; r++) printf "---:|"
        printf "---:|---:|---|\n"
        for (k = 1; k <= keys; k++) {
            key = order[k]
            split(key, part, " ")
            lo = hi = val[key, 1]
            printf "| %s | %s |", part[1], part[2]
            for (r = 1; r <= n; r++) {
                v = val[key, r]
                if (v < lo) lo = v
                if (v > hi) hi = v
                printf " %.4f |", v
            }
            diff = (hi - lo) / lo
            b = bound[part[2]]
            printf " %.1f%% | %.0f%% | %s |\n", 100 * diff, 100 * b, (diff <= b ? "yes" : "NO")
        }
    }
' "$tmp/bounds" "$tmp/values"
