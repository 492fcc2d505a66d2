#!/bin/sh
# The whole check pipeline; CI (.github/workflows/ci.yml) runs this script
# and nothing else. Run from the repository root: ./scripts/check.sh
set -eu

# Everything the checks build or write goes here, so overlapping runs on
# one box do not overwrite each other.
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
trap 'exit 1' INT TERM

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

# Every go test step carries a -timeout a few times its slowest package's
# run on 2 vCPUs, so a hung test fails in minutes instead of the default
# 10: internal/check takes about 15 s of go test ./..., the perfbench tests
# 4 s, the seed corpora and the tree-DP smoke under 5 s each, and
# internal/placement about 3.5 min of the race step.
echo "== go test"
go test -timeout 3m ./...

echo "== perfbench module (vet, test)"
# perfbench is a module of its own, so the ./... patterns above never
# compile it: a library name only the benchmark uses could vanish and
# break its build unnoticed.
(cd perfbench && go vet ./... && go test -timeout 2m ./...)

echo "== fuzz smoke (invariant auditor, bounded)"
# Each target explores seeds beyond the deterministic sweep for a bounded
# time (FUZZTIME to override). The corpora under internal/check/testdata/fuzz
# already ran as plain test cases in the step above.
for target in FuzzSolveQPP FuzzSolveTotalDelay FuzzLPvsExact FuzzRunWithFailures FuzzTreeDPvsLP; do
    go test ./internal/check -run '^$' -fuzz "^${target}\$" -fuzztime "${FUZZTIME:-20s}" -timeout 2m
done
# No quorum-system spec a command accepts may panic the parser, and the
# hitting-set search must match a brute force over every element set.
for target in FuzzParse FuzzHittingSetSearch; do
    go test ./internal/quorum -run '^$' -fuzz "^${target}\$" -fuzztime "${FUZZTIME:-20s}" -timeout 2m
done

echo "== tree-DP scaling smoke (10^4-node exact solve with independent re-evaluation)"
go test ./internal/treedp -run 'TestTreeDPLargeSmoke' -count=1 -short -timeout 2m

echo "== go test -race -count=2 (tracing, telemetry, exposition, parallel solver and metric build, tree DP, aggregation, heat sketches, daemon, concurrent experiment suites)"
go test -race -count=2 -timeout 8m ./internal/obs ./internal/obs/export ./internal/placement ./internal/netsim ./internal/graph ./internal/treedp ./internal/agg ./internal/heat ./internal/daemon ./internal/eval

echo "== metrics exposition smoke (qppeval -metrics-addr scraped by qppmon -validate)"
go build -o "$WORK/qppeval" ./cmd/qppeval
go build -o "$WORK/qppmon" ./cmd/qppmon
# Port 0 picks a free port; qppeval announces the bound URL on stderr.
"$WORK/qppeval" -quick -only E9 -metrics-addr 127.0.0.1:0 -metrics-hold 20s >/dev/null 2>"$WORK/qppeval.err" &
SMOKE_PID=$!
smoke_ok=0
url=
for _ in $(seq 1 100); do
    url=$(sed -n 's|.*serving metrics on \(http://[^/ ]*\)/metrics .*|\1|p' "$WORK/qppeval.err")
    if [ -n "$url" ] && "$WORK/qppmon" -addr "$url" -validate >/dev/null 2>&1; then
        smoke_ok=1
        break
    fi
    sleep 0.2
done
kill "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
if [ "$smoke_ok" != "1" ]; then
    echo "metrics exposition smoke failed: no valid Prometheus scrape from ${url:-an unannounced address}" >&2
    exit 1
fi
echo "exposition smoke passed"

echo "== experiment suite sweep (qppeval full mode, seeds 1-8)"
# -quick passes at every seed, so only full mode catches an experiment that
# aborts on some seeds' draws (E10 once did at seed 4). Tables are
# discarded; a failing seed's error reaches stderr.
for seed in $(seq 1 8); do
    if ! "$WORK/qppeval" -seed "$seed" >/dev/null; then
        echo "qppeval -seed $seed exited nonzero" >&2
        exit 1
    fi
done

echo "== perf gate (fresh benchmark run vs the committed snapshot)"
# The bands, ratios and ceilings live in cmd/benchdiff's table, next to
# their reasons; the baseline is the one committed BENCH_*.json.
set -- BENCH_*.json
if [ "$#" -ne 1 ] || [ ! -f "$1" ]; then
    echo "perf gate: want exactly one committed BENCH_*.json snapshot, found: $*" >&2
    exit 1
fi
./scripts/bench.sh "$WORK/bench.json"
go run ./cmd/benchdiff "$1" "$WORK/bench.json"

echo "all checks passed"
