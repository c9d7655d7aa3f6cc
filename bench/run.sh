#!/usr/bin/env bash
# The one command. Builds the benchmark from source into .bench_build/
# at the root of the checkout (go's build cache too, so that nothing is
# written outside it) and runs it from there.
#
#   bench/run.sh                         all four workloads, end-to-end then per-layer
#   bench/run.sh --workload restart ...  one run; the flags are bench's own (bench/main.go)
set -euo pipefail

cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
: "${SYMBENCH_COMMIT:=$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
export SYMBENCH_COMMIT
go build -C bench -o "$build/bench" .

for arg in "$@"; do
    case $arg in -workload | --workload | -workload=* | --workload=*) exec "$build/bench" "$@" ;; esac
done
for workload in apps-fig2 catalog-search ingest-mixed restart; do
    for trace in 0 1; do
        echo "== $workload, trace $trace"
        "$build/bench" --workload "$workload" --trace "$trace" "$@"
    done
done
