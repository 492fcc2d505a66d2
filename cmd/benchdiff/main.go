// Command benchdiff is the performance gate. It checks a fresh snapshot
// written by scripts/bench.sh (NEW) against the committed snapshot (BASE)
// and exits nonzero when NEW fails any gate:
//
//   - Every benchmark in BASE must be in NEW. A benchmark that fails at
//     runtime drops out of the snapshot, so a missing one is a failure.
//   - Every gate in the table below holds, each for the reason it gives.
//
// ns/op is never compared between BASE and NEW, which usually come from
// different machines: ratio and ceiling gates read NEW alone.
//
// Usage:
//
//	benchdiff BASE.json NEW.json
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// A gate is one row of the table. Its fields select one of three kinds:
//
//   - a band (no fast, no ceiling): metric in NEW stays within band,
//     relative, of BASE, for bench or, when bench is empty, for every
//     benchmark that an entry naming it does not override. A metric BASE
//     has and NEW lacks fails; one only NEW has is noted. growth gates only
//     an increase.
//   - a ratio (fast set): ns/op(bench) / ns/op(fast) in NEW reaches ratio.
//     Both come from one run, so the ratio compares across machines. It is
//     skipped when NEW was recorded at fewer than cpus GOMAXPROCS.
//   - a ceiling (ceiling set): ns/op(bench) in NEW stays at most ceiling.
type gate struct {
	bench   string
	metric  string
	band    float64
	growth  bool
	fast    string
	ratio   float64
	cpus    int
	ceiling time.Duration
	why     string
}

// table is the whole gate. A zero band makes a count exact: any change to
// the work it counts fails until the snapshot is re-recorded with the old
// and new counts in CHANGES.md. B/op and events/sec are not exact counts
// and are not gated.
var table = []gate{
	{metric: "allocs_per_op", band: 0.5, growth: true,
		why: "allocs/op are counts that compare across machines; 50% absorbs one-time setup amortized over the few iterations a 0.05 s benchtime runs, while a per-access leak multiplies allocs/op"},
	{bench: "BenchmarkAblationLPScaling/k=5", metric: "allocs_per_op", band: 1, growth: true,
		why: "runs so few iterations at 0.05 s that one-time setup dominates its allocs/op"},
	{bench: "BenchmarkE15Queueing", metric: "allocs_per_op", band: 1, growth: true,
		why: "runs with telemetry on: one span and a run-local latency histogram set up per run"},
	{metric: "p99_delay", band: 0.02,
		why: "E11's fixed-seed virtual-time quantile is the same on every machine up to histogram bucketing; drift either way means the simulation changed"},
	{metric: "p999_delay", band: 0.02,
		why: "as p99_delay"},
	{metric: "pivots_per_op",
		why: "simplex pivots of the SSQPP LP (9)-(14) behind Theorem 1.2 (E1, E4, ParallelQPP) and of a daemon tick's shard LP, cold and warm (DaemonTick): exact and machine-independent"},
	{metric: "elim_per_op",
		why: "elimination updates of those pivots (lp.elim_updates), the simplex's exact arithmetic work"},
	{metric: "augments_per_op",
		why: "augmentations of the Shmoys-Tardos rounding flow in E1"},
	{metric: "dp_ops_per_op",
		why: "transition pairs the treedp subset DP visits (treedp.dp_ops) in TreeDP's tree pipeline and PlanDPQPP's 128-source sweep: the DP's exact work, machine-independent"},
	{metric: "evals_per_op",
		why: "exact AvgMaxDelay scorings (placement.delay_evals) in PlanDPQPP's sequential sweep: only candidates whose rank-walk bound does not exceed the incumbent are scored"},
	{metric: "folded_epochs_per_op",
		why: "epochs a daemon tick's heat rate read folds: the W+1 window plus the epochs it seals, the same at 10^3 and 10^5 epochs of uptime; replaces a DaemonUptime epochs=10/epochs=100000 wall-clock ratio that read 0.71x-1.46x on noise"},
	{metric: "crash_draws_per_op",
		why: "crash states a failure run peeks: one per hosting node per access, not one per node; replaces a sim=run/sim=failures wall-clock ratio that read 0.47x against 0.5 on noise"},
	{bench: "BenchmarkParallelQPP/workers=1", fast: "BenchmarkParallelQPP/workers=4", ratio: 1.8, cpus: 4,
		why: "source runs of the QPP reduction spread over 4 workers; needs 4 CPUs for the workers to overlap"},
	{bench: "BenchmarkParallelNetsim/sim=run/workers=1", fast: "BenchmarkParallelNetsim/sim=run/workers=4", ratio: 2, cpus: 4,
		why: "the sharded simulator over 4 workers; needs 4 CPUs for the shards to overlap"},
	{bench: "BenchmarkDaemonTick/mode=cold", fast: "BenchmarkDaemonTick/mode=warm", ratio: 3,
		why: "a warm tick re-solves from the retained LP basis; a cold one (ResetWarm before each solve) rebuilds the tableau and runs phase 1"},
	{bench: "BenchmarkScalingClients/clients=10000", fast: "BenchmarkScalingClients/clients=1000000", ratio: 0.5,
		why: "on a fixed topology 10^6 clients cost at most 2x of 10^4: clients cost only aggregation, never solver work"},
	{bench: "BenchmarkTreeDP/nodes=100000", ceiling: 10 * time.Second,
		why: "E18's promise: the 10^5-node, 10^6-client tree-DP pipeline stays under 10 s"},
	{bench: "BenchmarkHeatObserve", ceiling: time.Microsecond,
		why: "the per-access cost netsim pays with a heat sketch"},
	{bench: "BenchmarkDriftScore", ceiling: 10 * time.Millisecond,
		why: "a full drift report (EWMA fold and TV scan) at a realistic sketch size"},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\nusage: benchdiff BASE.json NEW.json\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// snapshot mirrors the JSON layout scripts/bench.sh writes. MaxProcs is the
// GOMAXPROCS of the recording run.
type snapshot struct {
	Commit     string      `json:"commit"`
	Benchtime  string      `json:"benchtime"`
	MaxProcs   int         `json:"maxprocs"`
	Benchmarks []benchLine `json:"benchmarks"`
}

// benchLine is one benchmark of a snapshot. Values holds every numeric
// field under its snapshot name: ns_per_op, allocs_per_op and the custom
// metrics (pivots_per_op, p99_delay, ...), so a new metric flows through
// without a schema change.
type benchLine struct {
	Pkg, Name string
	Values    map[string]float64
}

func (b *benchLine) UnmarshalJSON(data []byte) error {
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*b = benchLine{Values: map[string]float64{}}
	b.Pkg, _ = raw["pkg"].(string)
	b.Name, _ = raw["name"].(string)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			b.Values[k] = f
		}
	}
	return nil
}

func run(args []string, stdout io.Writer) (int, error) {
	if len(args) != 2 {
		return 2, fmt.Errorf("want BASE.json NEW.json, got %d arguments", len(args))
	}
	base, err := readSnapshot(args[0])
	if err != nil {
		return 2, err
	}
	fresh, err := readSnapshot(args[1])
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "benchdiff: %s (%s, %s) -> %s (%s, %s, maxprocs %d)\n",
		args[0], base.Commit, base.Benchtime, args[1], fresh.Commit, fresh.Benchtime, fresh.MaxProcs)
	compared, added, failures := compare(base, fresh, stdout)
	failures += checkNew(fresh, stdout)
	fmt.Fprintf(stdout, "benchdiff: %d compared, %d regressions, %d new\n", compared, failures, added)
	if failures > 0 {
		return 1, nil
	}
	return 0, nil
}

// compare checks every BASE benchmark against NEW under the table's bands
// and returns the number compared, the number only NEW has, and the number
// of failures.
func compare(base, fresh *snapshot, stdout io.Writer) (compared, added, failures int) {
	baseBy, newBy := index(base), index(fresh)
	keys := make([]string, 0, len(baseBy))
	for k := range baseBy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	metrics := bandMetrics()
	for _, k := range keys {
		o := baseBy[k]
		n, ok := newBy[k]
		if !ok {
			failures++
			fmt.Fprintf(stdout, "MISSING   %s (in BASE, not in NEW: it failed or did not run)\n", k)
			continue
		}
		for _, m := range metrics {
			g, ok := bandFor(o.Name, m)
			if !ok {
				continue
			}
			ov, oOK := o.Values[m]
			nv, nOK := n.Values[m]
			delta := rel(ov, nv)
			switch {
			case !oOK && !nOK:
			case !nOK:
				failures++
				fmt.Fprintf(stdout, "MISSING   %-60s %s (in BASE, not in NEW)\n", k, m)
			case !oOK:
				fmt.Fprintf(stdout, "note      %-60s %s in NEW only; not gating\n", k, m)
			case delta > g.band || (!g.growth && delta < -g.band):
				failures++
				fmt.Fprintf(stdout, "REGRESS   %-60s %s %g -> %g (%+.2f%%, band ±%.2f%%)\n      why: %s\n",
					k, m, ov, nv, 100*delta, 100*g.band, g.why)
			default:
				fmt.Fprintf(stdout, "ok        %-60s %s %g -> %g (%+.2f%%)\n", k, m, ov, nv, 100*delta)
			}
		}
	}
	for k := range newBy {
		if _, ok := baseBy[k]; !ok {
			added++
			fmt.Fprintf(stdout, "new       %s\n", k)
		}
	}
	return len(keys), added, failures
}

// checkNew checks the table's ratios and ceilings, which read NEW alone,
// and returns the number of failures.
func checkNew(fresh *snapshot, stdout io.Writer) (failures int) {
	byName := map[string]benchLine{}
	for _, b := range fresh.Benchmarks {
		byName[b.Name] = b
	}
	for _, g := range table {
		b, ok := byName[g.bench]
		switch {
		case g.fast != "":
			f, okFast := byName[g.fast]
			got := b.Values["ns_per_op"] / f.Values["ns_per_op"]
			switch {
			case fresh.MaxProcs < g.cpus:
				fmt.Fprintf(stdout, "skipped   %s / %s (NEW recorded at maxprocs %d < %d)\n",
					g.bench, g.fast, fresh.MaxProcs, g.cpus)
			case !ok || !okFast:
				failures++
				fmt.Fprintf(stdout, "MISSING   %s / %s (ratio benchmark not in NEW)\n", g.bench, g.fast)
			case !(got >= g.ratio):
				failures++
				fmt.Fprintf(stdout, "REGRESS   %s / %s = %.2fx (want >= %.2fx)\n      why: %s\n",
					g.bench, g.fast, got, g.ratio, g.why)
			default:
				fmt.Fprintf(stdout, "ok        %s / %s = %.2fx (>= %.2fx)\n", g.bench, g.fast, got, g.ratio)
			}
		case g.ceiling > 0:
			got := time.Duration(b.Values["ns_per_op"])
			switch {
			case !ok:
				failures++
				fmt.Fprintf(stdout, "MISSING   %s (ceiling benchmark not in NEW)\n", g.bench)
			case got > g.ceiling:
				failures++
				fmt.Fprintf(stdout, "REGRESS   %s = %v/op (want <= %v)\n      why: %s\n", g.bench, got, g.ceiling, g.why)
			default:
				fmt.Fprintf(stdout, "ok        %s = %v/op (<= %v)\n", g.bench, got, g.ceiling)
			}
		}
	}
	return failures
}

// bandMetrics returns the metrics the table bands, sorted.
func bandMetrics() []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range table {
		if g.metric != "" && !seen[g.metric] {
			seen[g.metric] = true
			out = append(out, g.metric)
		}
	}
	sort.Strings(out)
	return out
}

// bandFor returns the band on metric for the named benchmark: the entry
// naming it, else the metric's default entry.
func bandFor(name, metric string) (gate, bool) {
	var def gate
	found := false
	for _, g := range table {
		switch {
		case g.metric != metric:
		case g.bench == name:
			return g, true
		case g.bench == "":
			def, found = g, true
		}
	}
	return def, found
}

func readSnapshot(path string) (*snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	return &s, nil
}

// index keys a snapshot's benchmarks by pkg/name.
func index(s *snapshot) map[string]benchLine {
	m := make(map[string]benchLine, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		m[b.Pkg+"/"+b.Name] = b
	}
	return m
}

// rel returns the relative change from old to new: 0 when both are 0, and
// +Inf when only old is 0, so a count that appears from zero breaks a band.
func rel(old, new float64) float64 {
	if old == new {
		return 0
	}
	if old == 0 {
		return math.Inf(1)
	}
	return (new - old) / old
}
