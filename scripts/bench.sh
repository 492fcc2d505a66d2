#!/bin/sh
# Benchmark harness: runs the experiment benchmarks (E1-E16), the ablation
# benchmarks and the LP, telemetry, heat and daemon micro-benchmarks at a
# 0.05s benchtime, and writes the parsed results as JSON to OUT.
# scripts/check.sh runs it and gates the result against the one committed
# BENCH_*.json snapshot with cmd/benchdiff, whose table holds every band.
#
# Usage (from the repo root):
#   scripts/bench.sh OUT
# Re-record the snapshot by deleting the old BENCH_*.json and running
#   scripts/bench.sh BENCH_$(date -u +%Y-%m-%d).json
#
# Every benchmark line is recorded with its iteration count, ns/op,
# B/op, allocs/op and any custom metrics the benchmark reports
# (pivots/op, augments/op, events/sec, ...), and the snapshot records the
# run's GOMAXPROCS, which a ratio's CPU floor in cmd/benchdiff reads. A
# benchmark that fails makes the script exit nonzero without writing OUT.
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: scripts/bench.sh OUT" >&2
    exit 2
fi
OUT=$1
BENCHTIME=0.05s
PATTERN='^(BenchmarkE[0-9]|BenchmarkAblation|BenchmarkTelemetryOverhead|BenchmarkParallel|BenchmarkSolve|BenchmarkWorkspace|BenchmarkShard|BenchmarkLogHist|BenchmarkScalingClients|BenchmarkMetricBuild|BenchmarkTreeDP|BenchmarkHeat|BenchmarkDrift|BenchmarkDaemon)'
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

raw=$(mktemp)
status=$(mktemp)
trap 'rm -f "$raw" "$status"' EXIT

# A pipeline exits with tee's status and POSIX sh has no pipefail, so go
# test's status travels through a file. The whole run takes about 20 s on
# 2 vCPUs; the timeout turns a hung benchmark into a failure.
{ go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -timeout 5m \
    . ./internal/lp ./internal/obs ./internal/heat ./internal/daemon || echo $? >"$status"; } | tee "$raw"
if [ -s "$status" ]; then
    echo "bench.sh: go test exited $(cat "$status"); no snapshot written" >&2
    exit 1
fi

# GOMAXPROCS is the -N suffix go test appends to every benchmark name, and
# no suffix means 1.
awk -v date="$(date -u +%Y-%m-%d)" -v benchtime="$BENCHTIME" -v commit="$COMMIT" '
/^pkg:/ { pkg = $2 }
/^Benchmark/ && NF >= 4 {
    name = $1
    if (match(name, /-[0-9]+$/)) {
        maxprocs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    line = sprintf("    {\"pkg\": \"%s\", \"name\": \"%s\", \"iters\": %s", pkg, name, $2)
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        line = line sprintf(", \"%s\": %s", unit, $i)
    }
    lines = lines (n++ ? ",\n" : "") line "}"
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"maxprocs\": %d,\n  \"benchmarks\": [\n%s\n  ]\n}\n", date, commit, benchtime, maxprocs ? maxprocs : 1, lines
}
' "$raw" >"$OUT"

echo "wrote $OUT"
