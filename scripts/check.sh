#!/bin/sh
# The whole check pipeline; CI (.github/workflows/ci.yml) runs this script
# and nothing else. Run from the repository root: ./scripts/check.sh
set -eu

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== go test"
go test ./...

echo "== fuzz smoke (invariant auditor, bounded)"
# Each target explores seeds beyond the deterministic sweep for a bounded
# time (FUZZTIME to override). The corpora under internal/check/testdata/fuzz
# already ran as plain test cases in the step above.
for target in FuzzSolveQPP FuzzSolveTotalDelay FuzzLPvsExact FuzzRunWithFailures FuzzTreeDPvsLP; do
    go test ./internal/check -run '^$' -fuzz "^${target}\$" -fuzztime "${FUZZTIME:-20s}"
done

echo "== tree-DP scaling smoke (10^4-node exact solve with independent re-evaluation)"
go test ./internal/treedp -run 'TestTreeDPLargeSmoke' -count=1 -short

echo "== go test -race -count=2 (tracing, telemetry, exposition, parallel solver and metric build, tree DP, aggregation, heat sketches, daemon, concurrent experiment suites)"
go test -race -count=2 ./internal/obs ./internal/obs/export ./internal/placement ./internal/netsim ./internal/graph ./internal/treedp ./internal/agg ./internal/heat ./internal/daemon ./internal/eval

echo "== metrics exposition smoke (qppeval -metrics-addr scraped by qppmon -validate)"
MPORT="${MPORT:-9464}"
go build -o /tmp/qppeval_smoke ./cmd/qppeval
go build -o /tmp/qppmon_smoke ./cmd/qppmon
/tmp/qppeval_smoke -quick -only E9 -metrics-addr "127.0.0.1:${MPORT}" -metrics-hold 20s >/dev/null 2>&1 &
SMOKE_PID=$!
smoke_ok=0
for _ in $(seq 1 100); do
    if /tmp/qppmon_smoke -addr "127.0.0.1:${MPORT}" -validate >/dev/null 2>&1; then
        smoke_ok=1
        break
    fi
    sleep 0.2
done
kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
if [ "$smoke_ok" != "1" ]; then
    echo "metrics exposition smoke failed: no valid Prometheus scrape from 127.0.0.1:${MPORT}" >&2
    exit 1
fi
echo "exposition smoke passed"

echo "== perf gate (fresh benchmark run vs the latest committed snapshot)"
BENCHTIME=0.05s OUT=/tmp/bench_check.json ./scripts/bench.sh
# The baseline was recorded at this 0.05s benchtime with maxprocs equal to
# the recording box's core count (2), so setup amortization and
# GOMAXPROCS-sized worker pools match a fresh run on such a box. Bands:
#   - allocs/op are exact counts, comparable across machines; the 50%
#     band absorbs one-time setup amortized over the few iterations a
#     0.05s benchtime runs (a per-access leak multiplies allocs/op).
#     AblationLPScaling/k=5 runs few enough iterations that setup
#     dominates, and E15Queueing runs with telemetry on (span and
#     run-local histogram setup per run), hence their 100% bands.
#   - p99_delay/p999_delay are fixed-seed virtual-time quantiles,
#     identical on every machine up to the histogram bucketing band.
#   - Speedups are ratios within the fresh run. The workers=4 entries
#     need 4 CPUs to mean anything, so they carry a CPU floor; the warm
#     daemon tick must beat a cold one (ResetWarm before each solve) by
#     3x, and 10^6 clients must cost at most 2x of 10^4 on a fixed
#     topology.
#   - Ceilings: the 10^5-node/10^6-client tree-DP solve stays under 10s;
#     a heat Observe (the per-access cost netsim pays with a sketch) under
#     1us; a full drift report under 10ms.
go run ./cmd/benchdiff -allocs-threshold 0.5 \
    -allocs-per 'BenchmarkAblationLPScaling/k=5=1.0,BenchmarkE15Queueing=1.0' \
    -metric 'p99_delay=0.02,p999_delay=0.02' \
    -speedup 'BenchmarkParallelQPP/workers=1:BenchmarkParallelQPP/workers=4:1.8:4,BenchmarkParallelNetsim/sim=run/workers=1:BenchmarkParallelNetsim/sim=run/workers=4:2.0:4,BenchmarkDaemonTick/mode=cold:BenchmarkDaemonTick/mode=warm:3.0,BenchmarkScalingClients/clients=10000:BenchmarkScalingClients/clients=1000000:0.5' \
    -max-time 'BenchmarkTreeDP/nodes=100000=10s,BenchmarkHeatObserve=1us,BenchmarkDriftScore=10ms' \
    BENCH_2026-10-17.json /tmp/bench_check.json

echo "all checks passed"
