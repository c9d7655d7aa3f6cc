#!/bin/sh
# allocgate: the warm-path allocation budget for the query pipeline.
#
# Runs the BenchmarkQuery family with -benchmem and compares allocs/op
# against the committed baseline in scripts/allocgate_baseline.txt. The
# baseline was taken at GOMAXPROCS=1, so the run is pinned there too:
# with more procs the shard executor's fan-out degree, and with it the
# allocation count, follows whichever workers happen to be idle. A
# variant may regress by at most 20%, with a +2 absolute grace so tiny
# baselines (4 allocs) are not failed by a single incidental
# allocation. Anything more
# fails: allocation creep on the warm path is exactly the regression
# the pooled-scratch redesign exists to prevent, and it never shows up
# in correctness tests.
#
#   scripts/allocgate.sh            check (exit 1 on regressions)
#   scripts/allocgate.sh --update   regenerate the baseline
#
# allocs/op is deterministic for these benchmarks (unlike ns/op), so a
# single -benchtime=100x pass is a stable measurement.
set -eu

cd "$(dirname "$0")/.."
baseline=scripts/allocgate_baseline.txt
out=$(mktemp)
trap 'rm -f "$out"' EXIT

GOMAXPROCS=1 go test ./internal/index/ -run '^$' -bench 'BenchmarkQuery($|/)' \
    -benchmem -benchtime=100x | tee "$out"

measured() {
    # "BenchmarkQuery/match  100  5238 ns/op  672 B/op  4 allocs/op"
    # -> "BenchmarkQuery/match 4"
    awk '/^BenchmarkQuery/ {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
        for (i = 2; i <= NF; i++)
            if ($i == "allocs/op") print name, $(i-1)
    }' "$out" | sort
}

if [ "${1:-}" = "--update" ]; then
    measured >"$baseline"
    echo "allocgate: baseline regenerated with $(wc -l <"$baseline") entries"
    exit 0
fi

if [ ! -f "$baseline" ]; then
    echo "allocgate: missing $baseline (run scripts/allocgate.sh --update once)" >&2
    exit 1
fi

got=$(mktemp)
measured >"$got"
awk '
    NR == FNR { base[$1] = $2; next }
    {
        seen[$1] = 1
        if (!($1 in base)) {
            printf "allocgate: %s has no baseline entry\n", $1 > "/dev/stderr"
            bad = 1
            next
        }
        limit = base[$1] * 1.2 + 2
        if ($2 > limit) {
            printf "allocgate: %s regressed: %d allocs/op vs baseline %d (limit %.0f)\n", $1, $2, base[$1], limit > "/dev/stderr"
            bad = 1
        }
    }
    END {
        for (n in base) if (!(n in seen)) {
            printf "allocgate: %s in baseline but not in the run\n", n > "/dev/stderr"
            bad = 1
        }
        if (bad) {
            printf "allocgate: fix the allocation (preferred) or consciously rebaseline with scripts/allocgate.sh --update\n" > "/dev/stderr"
            exit 1
        }
    }' "$baseline" "$got"
rm -f "$got"
echo "allocgate: ok"
