#!/bin/sh
# Benchmark harness: runs the experiment benchmarks (E1-E16), the ablation
# benchmarks and the LP substrate micro-benchmarks with a fixed -benchtime,
# and writes the parsed results as BENCH_<utc-date><suffix>.json. The
# latest committed snapshot is the baseline scripts/check.sh gates a fresh
# run against with cmd/benchdiff.
#
# Usage:
#   scripts/bench.sh [suffix]        # e.g. scripts/bench.sh -baseline
#   BENCHTIME=0.1s scripts/bench.sh  # shorter runs (check.sh uses 0.05s)
#   OUT=/dev/stdout scripts/bench.sh # print instead of writing a file
#
# Every benchmark line is recorded with its iteration count, ns/op,
# B/op, allocs/op and any custom metrics the benchmark reports
# (pivots/op, augments/op, events/sec, ...). A benchmark that fails makes
# the script exit nonzero without writing a snapshot. Run from the repo
# root.
set -eu

BENCHTIME="${BENCHTIME:-0.5s}"
SUFFIX="${1:-}"
DATE=$(date -u +%Y-%m-%d)
OUT="${OUT:-BENCH_${DATE}${SUFFIX}.json}"
PATTERN="${PATTERN:-^(BenchmarkE[0-9]|BenchmarkAblation|BenchmarkTelemetryOverhead|BenchmarkParallel|BenchmarkSolve|BenchmarkWorkspace|BenchmarkShard|BenchmarkLogHist|BenchmarkScalingClients|BenchmarkMetricBuild|BenchmarkTreeDP|BenchmarkHeat|BenchmarkDrift|BenchmarkDaemon)}"
PKGS="${PKGS:-. ./internal/lp ./internal/obs ./internal/heat ./internal/daemon}"
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# GOMAXPROCS of this run; a benchdiff -speedup entry's CPU floor keys off it
# so parallel-scaling gates only fire on machines with enough cores for the
# workers to overlap.
MAXPROCS="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}"

raw=$(mktemp)
status=$(mktemp)
trap 'rm -f "$raw" "$status"' EXIT

# A pipeline exits with tee's status and POSIX sh has no pipefail, so go
# test's status travels through a file.
# shellcheck disable=SC2086 # PKGS is intentionally word-split
{ go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" $PKGS || echo $? >"$status"; } | tee "$raw"
if [ -s "$status" ]; then
    echo "bench.sh: go test exited $(cat "$status"); no snapshot written" >&2
    exit 1
fi

awk -v date="$DATE" -v benchtime="$BENCHTIME" -v commit="$COMMIT" -v maxprocs="$MAXPROCS" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"maxprocs\": %d,\n  \"benchmarks\": [", date, commit, benchtime, maxprocs
    n = 0
}
/^pkg:/ { pkg = $2 }
/^Benchmark/ && NF >= 4 {
    name = $1
    sub(/-[0-9]+$/, "", name) # strip -GOMAXPROCS
    if (n++) printf ","
    printf "\n    {\"pkg\": \"%s\", \"name\": \"%s\", \"iters\": %s", pkg, name, $2
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { printf "\n  ]\n}\n" }
' "$raw" >"$OUT"

echo "wrote $OUT"
