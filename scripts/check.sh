#!/bin/sh
# Local mirror of the CI pipeline (.github/workflows/ci.yml).
# Run from the repository root: ./scripts/check.sh
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

echo "== go test -race (instrumented packages)"
go test -race ./internal/obs ./internal/obs/export ./internal/placement ./internal/netsim ./internal/graph ./internal/treedp ./internal/agg ./internal/heat ./internal/daemon ./internal/eval

echo "== go test -race -count=2 (tracing, telemetry, exposition, heat sketches, parallel solver, parallel metric build and concurrent experiment suites)"
go test -race -count=2 ./internal/obs ./internal/obs/export ./internal/netsim ./internal/placement ./internal/graph ./internal/heat ./internal/daemon ./internal/eval

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

echo "== bench smoke (telemetry overhead, disabled-path budget)"
go test -run '^$' -bench 'BenchmarkTelemetryOverhead' -benchtime 0.1s .

echo "== perf gate (benchdiff over BENCH snapshots)"
BENCHTIME=0.05s OUT=/tmp/bench_check.json NO_ARCHIVE=1 ./scripts/bench.sh >/dev/null
# Cross-machine gates: allocations are exact and the fixed-seed virtual-time
# p99_delay must agree within the histogram bucketing band; ns/op is not
# comparable (-ignore-ns). The k=5 LP-scaling benchmark runs few enough
# iterations at 0.05s benchtime that one-time setup dominates allocs/op,
# hence its wider band. The baseline includes the heat-sketch
# benchmarks, so their allocation profile (Observe: zero per op) is gated
# here too. BenchmarkE15Queueing enables telemetry as of pr9 (it reports
# events/sec from the counter plane), which adds the span + run-local
# histogram allocations on top of the hot loop — hence its band. The
# baseline was recorded at this same 0.05s benchtime with maxprocs equal
# to the recording box's core count (2), so setup amortization and
# GOMAXPROCS-sized worker pools match the fresh run.
go run ./cmd/benchdiff -ignore-ns -allocs-threshold 0.5 \
    -allocs-per 'BenchmarkAblationLPScaling/k=5=1.0,BenchmarkE15Queueing=1.0' \
    -metric 'p99_delay=0.02,p999_delay=0.02' BENCH_2026-10-17.json /tmp/bench_check.json
go run ./cmd/benchdiff -per 'BenchmarkE11NetsimValidation=0.02,BenchmarkE3TotalDelay=0.30' BENCH_2026-08-06.json BENCH_2026-08-06-pr3.json
go run ./cmd/benchdiff -ignore-ns BENCH_2026-08-06-pr3.json BENCH_2026-08-06-pr4.json
# pr4 -> pr6 adds allocations on telemetry-ON paths only: one run-local
# access-latency LogHist per simulation run (E11 benchmarks with telemetry
# enabled) and per-worker obs.Shard setup in the parallel solver; the
# disabled path stays exact.
go run ./cmd/benchdiff -ignore-ns \
    -allocs-per 'BenchmarkE11NetsimValidation=0.25,BenchmarkParallelQPP/workers=4=0.001' \
    BENCH_2026-08-06-pr4.json BENCH_2026-08-07-pr6.json
# pr6 -> pr7 adds the scaling family (new benchmarks are noted, not gated);
# the MetricBuild allocation band absorbs the O(workers) per-run workspace
# allocations that legitimately vary with GOMAXPROCS — a per-row workspace
# regression is O(n) allocs and blows far past it.
# The telemetry-on parallel benchmarks run so few iterations at this
# benchtime (b.N of 3-4 for workers=8) that per-run goroutine and shard
# setup amortizes differently run to run: allocs/op jitters by a few
# counts on an identical binary, hence their small bands.
go run ./cmd/benchdiff -ignore-ns -allocs-per 'BenchmarkMetricBuild=10.0,BenchmarkE1QPPApprox=0.005,BenchmarkParallelQPP/workers=2=0.01,BenchmarkParallelQPP/workers=8=0.05' \
    BENCH_2026-08-07-pr6.json BENCH_2026-08-07-pr7.json
# pr7 -> pr8 threads the heat sketch through netsim; with no sketch
# attached the cost is one nil check per access, so E11 must stay inside
# the same <=2% tracing-off budget. The recording box's tenancy noise
# swamps the default ns band on unrelated benchmarks (-threshold 10
# disables them); the budget under test is the E11 -per gate plus exact
# disabled-path allocations (the parallel/LP-scaling benchmarks keep
# their documented setup-amortization bands).
go run ./cmd/benchdiff -threshold 10 -per 'BenchmarkE11NetsimValidation=0.02' \
    -allocs-per 'BenchmarkAblationLPScaling/k=5=1.0,BenchmarkParallelQPP/workers=2=0.01,BenchmarkParallelQPP/workers=8=0.01' \
    BENCH_2026-08-07-pr7.json BENCH_2026-08-07-pr8.json
# pr8 -> pr9 shards the simulators (Config.Workers); the sequential
# Workers=0 paths are untouched, so the fixed-seed delay quantiles must
# stay inside the bucketing band and disabled-path allocations stay exact.
# E15Queueing's band covers its newly enabled telemetry (see above); the
# BenchmarkParallelNetsim family is new in pr9 (noted, not gated).
go run ./cmd/benchdiff -ignore-ns \
    -allocs-per 'BenchmarkAblationLPScaling/k=5=1.0,BenchmarkE15Queueing=1.0,BenchmarkParallelQPP/workers=2=0.01,BenchmarkParallelQPP/workers=8=0.01' \
    -metric 'p99_delay=0.02,p999_delay=0.02' \
    BENCH_2026-08-07-pr8.json BENCH_2026-08-07-pr9.json
# pr9 -> pr10 adds LP warm-starting (SolveHot) and the placement daemon.
# One-shot Solve/SolveWith callers skip the warm-state snapshot entirely
# (warmState.record), so every LP-driven benchmark must hold its allocation
# profile exactly. The banded families are the documented cross-binary
# jitter cases: parallel sims and the tree-DP/aggregation one-shots run
# 1-4 iterations at this benchtime, so GC-timing-dependent sync.Pool
# refills and setup amortization move allocs/op by a few counts between
# binaries even with their sources untouched (largest observed: queueing
# workers=1, 142 -> 153 on identical netsim code).
go run ./cmd/benchdiff -ignore-ns \
    -allocs-per 'BenchmarkAblationLPScaling/k=5=1.0,BenchmarkE14StrategyOpt=0.05,BenchmarkMetricBuild=10.0,BenchmarkParallelNetsim/sim=run/workers=1=0.1,BenchmarkParallelNetsim/sim=run/workers=2=0.1,BenchmarkParallelNetsim/sim=run/workers=4=0.1,BenchmarkParallelNetsim/sim=run/workers=8=0.1,BenchmarkParallelNetsim/sim=failures/workers=1=0.1,BenchmarkParallelNetsim/sim=failures/workers=2=0.1,BenchmarkParallelNetsim/sim=failures/workers=4=0.1,BenchmarkParallelNetsim/sim=failures/workers=8=0.1,BenchmarkParallelNetsim/sim=queueing/workers=1=0.1,BenchmarkParallelNetsim/sim=queueing/workers=2=0.1,BenchmarkParallelNetsim/sim=queueing/workers=4=0.1,BenchmarkParallelNetsim/sim=queueing/workers=8=0.1,BenchmarkParallelQPP/workers=1=0.01,BenchmarkParallelQPP/workers=2=0.01,BenchmarkParallelQPP/workers=4=0.01,BenchmarkParallelQPP/workers=8=0.01,BenchmarkScalingClients/clients=10000=0.001,BenchmarkTreeDP/nodes=100000=0.01' \
    -metric 'p99_delay=0.02,p999_delay=0.02' \
    BENCH_2026-08-07-pr9.json BENCH_2026-08-07-pr10.json

echo "== perf gate (parallel QPP + netsim speedup; skipped below 4 CPUs)"
go run ./cmd/benchdiff -min-cpus 4 \
    -speedup 'BenchmarkParallelQPP/workers=1:BenchmarkParallelQPP/workers=4:1.8' \
    /tmp/bench_check.json
# The sharded netsim must buy >=2x events/sec at 4 workers on the
# propagation simulator (the pure-engine path: no failure draws, no
# queueing windows). Keyed off the snapshot's recorded maxprocs so
# single-core runners skip the gate instead of failing it.
go run ./cmd/benchdiff -min-cpus 4 \
    -speedup 'BenchmarkParallelNetsim/sim=run/workers=1:BenchmarkParallelNetsim/sim=run/workers=4:2.0' \
    /tmp/bench_check.json

echo "== perf gate (daemon warm-start tick speedup)"
# The point of the LP warm-start path: a steady-state daemon tick that
# re-enters the previous simplex basis must beat the identical tick forced
# cold (Daemon.ResetWarm before each solve) by >=3x. Measured ~4.7x on the
# recording box; the ratio is machine-comparable, so it gates both the
# fresh local snapshot and the committed pr10 one.
go run ./cmd/benchdiff \
    -speedup 'BenchmarkDaemonTick/mode=cold:BenchmarkDaemonTick/mode=warm:3.0' \
    /tmp/bench_check.json
go run ./cmd/benchdiff \
    -speedup 'BenchmarkDaemonTick/mode=cold:BenchmarkDaemonTick/mode=warm:3.0' \
    BENCH_2026-08-07-pr10.json

echo "== perf gate (client-scaling ratio and tree-DP wall-clock ceiling)"
# Million-client aggregation must stay within the fixed-topology solve time
# (10^6 clients within 2x of 10^4), and the 10^5-node/10^6-client pipeline
# must hold the 10-second promise. Both run on this machine's fresh
# snapshot: the ratio is machine-comparable by construction, and the
# absolute ceiling has ~5x headroom on the recording box.
go run ./cmd/benchdiff \
    -speedup 'BenchmarkScalingClients/clients=10000:BenchmarkScalingClients/clients=1000000:0.5' \
    -max-time 'BenchmarkTreeDP/nodes=100000=10s' \
    /tmp/bench_check.json
go run ./cmd/benchdiff \
    -speedup 'BenchmarkScalingClients/clients=10000:BenchmarkScalingClients/clients=1000000:0.5' \
    -max-time 'BenchmarkTreeDP/nodes=100000=10s' \
    BENCH_2026-08-07-pr7.json

echo "== perf gate (heat sketch hot-path budgets)"
# Observe is the per-access cost netsim pays with a sketch attached: a
# mutex round-trip plus integer increments, sub-microsecond with room to
# spare; a full drift report (EWMA fold + TV scan) stays under 10ms.
go run ./cmd/benchdiff -max-time 'BenchmarkHeatObserve=1us,BenchmarkDriftScore=10ms' /tmp/bench_check.json
go run ./cmd/benchdiff -max-time 'BenchmarkHeatObserve=1us,BenchmarkDriftScore=10ms' BENCH_2026-08-07-pr8.json

echo "all checks passed"
