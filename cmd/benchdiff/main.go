// Command benchdiff is the performance gate. It checks a fresh snapshot
// written by scripts/bench.sh (NEW) against the latest committed snapshot
// (BASE) and exits nonzero when NEW fails any gate:
//
//   - Every benchmark in BASE must be in NEW. A benchmark that fails at
//     runtime drops out of the snapshot, so a missing one is a failure.
//   - allocs/op must not grow beyond -allocs-threshold (0, the default,
//     means exact), or beyond the benchmark's own -allocs-per band.
//     Allocations are deterministic, so they compare across machines.
//   - Each -metric custom metric (p99_delay, ...) must stay within its
//     symmetric relative band of BASE. Fixed-seed simulated quantiles are
//     virtual-time quantities, identical on every machine.
//   - Each -speedup ratio ns/op(SLOW) / ns/op(FAST) in NEW must reach
//     RATIO. Both numbers come from one run, so the ratio is comparable
//     across machines. An entry with a MINCPUS field is skipped when NEW
//     was recorded with fewer GOMAXPROCS: a worker-scaling ratio means
//     nothing on a machine that cannot run the workers in parallel.
//   - Each -max-time benchmark's ns/op in NEW must stay under its ceiling,
//     an end-to-end promise such as "a 10⁵-node tree solve stays under
//     10s".
//
// ns/op is never compared between BASE and NEW, which usually come from
// different machines.
//
// Usage:
//
//	benchdiff [gates] BASE.json NEW.json
//	  -allocs-threshold FRAC
//	  -allocs-per NAME=FRAC,...
//	  -metric NAME=BAND,...
//	  -speedup SLOW:FAST:RATIO[:MINCPUS],...
//	  -max-time NAME=DURATION,...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// snapshot mirrors the JSON layout scripts/bench.sh writes. MaxProcs is the
// GOMAXPROCS of the recording run.
type snapshot struct {
	Date       string      `json:"date"`
	Commit     string      `json:"commit"`
	Benchtime  string      `json:"benchtime"`
	MaxProcs   int         `json:"maxprocs"`
	Benchmarks []benchLine `json:"benchmarks"`
}

type benchLine struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds every other numeric field of the snapshot line — the
	// custom metrics benchmarks report (pivots_per_op, p99_delay, ...),
	// which bench.sh records under their sanitized unit names. Gated with
	// -metric.
	Extra map[string]float64 `json:"-"`
}

// UnmarshalJSON keeps the fixed fields and routes every other numeric key
// into Extra, so new custom metrics flow through without schema changes.
func (b *benchLine) UnmarshalJSON(data []byte) error {
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*b = benchLine{}
	for k, v := range raw {
		switch k {
		case "pkg":
			b.Pkg, _ = v.(string)
		case "name":
			b.Name, _ = v.(string)
		case "iters":
			if f, ok := v.(float64); ok {
				b.Iters = int64(f)
			}
		case "ns_per_op":
			b.NsPerOp, _ = v.(float64)
		case "allocs_per_op":
			b.AllocsPerOp, _ = v.(float64)
		default:
			if f, ok := v.(float64); ok {
				if b.Extra == nil {
					b.Extra = make(map[string]float64)
				}
				b.Extra[k] = f
			}
		}
	}
	return nil
}

// speedupGate is one -speedup entry. minCPUs 0 means the gate always fires.
type speedupGate struct {
	slow, fast string
	ratio      float64
	minCPUs    int
}

// ceiling is one -max-time entry.
type ceiling struct {
	name  string
	limit time.Duration
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allocsThreshold := fs.Float64("allocs-threshold", 0, "allocs/op tolerance as a fraction (0 = exact match)")
	allocsPer := fs.String("allocs-per", "", "comma-separated name=fraction per-benchmark allocs/op tolerance overrides (for setup amortization at short benchtimes)")
	metricSpec := fs.String("metric", "", "comma-separated name=band custom-metric drift gates (e.g. p99_delay=0.02); drift beyond the band in either direction fails")
	speedupSpec := fs.String("speedup", "", "comma-separated SLOW:FAST:RATIO[:MINCPUS] ns/op ratio gates over NEW, skipped when NEW's maxprocs is below MINCPUS")
	maxTimeSpec := fs.String("max-time", "", "comma-separated NAME=DURATION ns/op ceilings over NEW (e.g. BenchmarkTreeDP=10s)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2, fmt.Errorf("want BASE.json NEW.json, got %d arguments", fs.NArg())
	}
	allocsBands, err := parseBands(*allocsPer)
	if err != nil {
		return 2, err
	}
	metricBands, err := parseBands(*metricSpec)
	if err != nil {
		return 2, err
	}
	speedups, err := parseSpeedups(*speedupSpec)
	if err != nil {
		return 2, err
	}
	ceilings, err := parseMaxTimes(*maxTimeSpec)
	if err != nil {
		return 2, err
	}
	base, err := readSnapshot(fs.Arg(0))
	if err != nil {
		return 2, err
	}
	fresh, err := readSnapshot(fs.Arg(1))
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "benchdiff: %s (%s, %s) -> %s (%s, %s, maxprocs %d)\n",
		fs.Arg(0), base.Commit, base.Benchtime, fs.Arg(1), fresh.Commit, fresh.Benchtime, fresh.MaxProcs)

	compared, added, failures := compare(base, fresh, *allocsThreshold, allocsBands, metricBands, stdout)
	failures += checkSpeedups(fresh, speedups, stdout)
	failures += checkMaxTimes(fresh, ceilings, stdout)
	fmt.Fprintf(stdout, "benchdiff: %d compared, %d regressions, %d new\n", compared, failures, added)
	if failures > 0 {
		return 1, nil
	}
	return 0, nil
}

// compare gates every BASE benchmark's allocs/op and custom metrics against
// NEW and returns the number compared, the number only NEW has, and the
// number of failures.
func compare(base, fresh *snapshot, allocsThreshold float64, allocsBands, metricBands map[string]float64, stdout io.Writer) (compared, added, failures int) {
	baseBy, newBy := index(base), index(fresh)
	keys := make([]string, 0, len(baseBy))
	for k := range baseBy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	metricNames := make([]string, 0, len(metricBands))
	for m := range metricBands {
		metricNames = append(metricNames, m)
	}
	sort.Strings(metricNames)

	for _, k := range keys {
		o := baseBy[k]
		n, ok := newBy[k]
		if !ok {
			failures++
			fmt.Fprintf(stdout, "MISSING   %s (in BASE, not in NEW: it failed or did not run)\n", k)
			continue
		}
		at := allocsThreshold
		if band, ok := allocsBands[o.Name]; ok {
			at = band
		}
		switch {
		case n.AllocsPerOp > o.AllocsPerOp*(1+at):
			failures++
			fmt.Fprintf(stdout, "REGRESS   %-60s allocs/op %g -> %g (limit +%.1f%%)\n",
				k, o.AllocsPerOp, n.AllocsPerOp, 100*at)
		case n.AllocsPerOp < o.AllocsPerOp:
			fmt.Fprintf(stdout, "improved  %-60s allocs/op %g -> %g\n", k, o.AllocsPerOp, n.AllocsPerOp)
		default:
			fmt.Fprintf(stdout, "ok        %-60s allocs/op %g -> %g\n", k, o.AllocsPerOp, n.AllocsPerOp)
		}
		// A metric present on only one side is noted, not gated.
		for _, m := range metricNames {
			ov, oOK := o.Extra[m]
			nv, nOK := n.Extra[m]
			if !oOK && !nOK {
				continue
			}
			if oOK != nOK {
				fmt.Fprintf(stdout, "note      %-60s metric %s on one side only; not gating\n", k, m)
				continue
			}
			band := metricBands[m]
			delta := rel(ov, nv)
			if delta > band || delta < -band {
				failures++
				fmt.Fprintf(stdout, "DRIFT     %-60s %s %g -> %g  (%+.2f%%, band ±%.2f%%)\n",
					k, m, ov, nv, 100*delta, 100*band)
			} else {
				fmt.Fprintf(stdout, "ok        %-60s %s %g -> %g  (%+.2f%%)\n",
					k, m, ov, nv, 100*delta)
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

// checkSpeedups evaluates the -speedup gates on NEW and returns the number
// of failures.
func checkSpeedups(fresh *snapshot, gates []speedupGate, stdout io.Writer) (failures int) {
	byName := nameIndex(fresh)
	for _, g := range gates {
		if fresh.MaxProcs < g.minCPUs {
			fmt.Fprintf(stdout, "skipped   %s / %s (NEW recorded at maxprocs %d < %d)\n",
				g.slow, g.fast, fresh.MaxProcs, g.minCPUs)
			continue
		}
		slow, okSlow := byName[g.slow]
		fast, okFast := byName[g.fast]
		switch {
		case !okSlow || !okFast:
			failures++
			fmt.Fprintf(stdout, "MISSING   %s / %s (speedup benchmark not in NEW)\n", g.slow, g.fast)
		case fast.NsPerOp <= 0 || slow.NsPerOp/fast.NsPerOp < g.ratio:
			failures++
			fmt.Fprintf(stdout, "REGRESS   %s / %s = %.2fx (want >= %.2fx)\n",
				g.slow, g.fast, slow.NsPerOp/fast.NsPerOp, g.ratio)
		default:
			fmt.Fprintf(stdout, "ok        %s / %s = %.2fx (>= %.2fx)\n",
				g.slow, g.fast, slow.NsPerOp/fast.NsPerOp, g.ratio)
		}
	}
	return failures
}

// checkMaxTimes evaluates the -max-time ceilings on NEW and returns the
// number of failures.
func checkMaxTimes(fresh *snapshot, ceilings []ceiling, stdout io.Writer) (failures int) {
	byName := nameIndex(fresh)
	for _, c := range ceilings {
		b, ok := byName[c.name]
		if !ok {
			failures++
			fmt.Fprintf(stdout, "MISSING   %s (max-time benchmark not in NEW)\n", c.name)
			continue
		}
		got := time.Duration(b.NsPerOp)
		if got > c.limit {
			failures++
			fmt.Fprintf(stdout, "REGRESS   %s = %v/op (want <= %v)\n", c.name, got, c.limit)
		} else {
			fmt.Fprintf(stdout, "ok        %s = %v/op (<= %v)\n", c.name, got, c.limit)
		}
	}
	return failures
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

// nameIndex keys a snapshot's benchmarks by both the bare name and
// pkg/name, the two spellings a gate entry may use.
func nameIndex(s *snapshot) map[string]benchLine {
	m := index(s)
	for _, b := range s.Benchmarks {
		m[b.Name] = b
	}
	return m
}

// splitLast splits a NAME=VALUE entry at the LAST '=': sub-benchmark names
// contain '=' (BenchmarkAblationLPScaling/k=5, BenchmarkParallelQPP/workers=4).
func splitLast(part string) (name, value string, ok bool) {
	i := strings.LastIndex(part, "=")
	if i < 0 {
		return "", "", false
	}
	return part[:i], part[i+1:], true
}

func parseBands(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		name, frac, ok := splitLast(part)
		if !ok {
			return nil, fmt.Errorf("bad band entry %q (want name=fraction)", part)
		}
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad band fraction %q in %q", frac, part)
		}
		out[name] = f
	}
	return out, nil
}

func parseSpeedups(s string) ([]speedupGate, error) {
	if s == "" {
		return nil, nil
	}
	var out []speedupGate
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("bad -speedup entry %q (want SLOW:FAST:RATIO[:MINCPUS])", part)
		}
		g := speedupGate{slow: fields[0], fast: fields[1]}
		var err error
		if g.ratio, err = strconv.ParseFloat(fields[2], 64); err != nil || g.ratio <= 0 {
			return nil, fmt.Errorf("bad -speedup ratio %q in %q", fields[2], part)
		}
		if len(fields) == 4 {
			if g.minCPUs, err = strconv.Atoi(fields[3]); err != nil || g.minCPUs < 1 {
				return nil, fmt.Errorf("bad -speedup MINCPUS %q in %q", fields[3], part)
			}
		}
		out = append(out, g)
	}
	return out, nil
}

func parseMaxTimes(s string) ([]ceiling, error) {
	if s == "" {
		return nil, nil
	}
	var out []ceiling
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		name, durStr, ok := splitLast(part)
		if !ok {
			return nil, fmt.Errorf("bad -max-time entry %q (want NAME=DURATION)", part)
		}
		dur, err := time.ParseDuration(durStr)
		if err != nil || dur <= 0 {
			return nil, fmt.Errorf("bad -max-time duration %q in %q", durStr, part)
		}
		out = append(out, ceiling{name, dur})
	}
	return out, nil
}

// rel returns the relative change from old to new, 0 when old is 0.
func rel(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}
