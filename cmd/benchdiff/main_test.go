package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// line is one benchmark of a test snapshot: its name and numeric fields.
type line struct {
	name string
	vals map[string]float64
}

func ns(name string, v float64) line { return line{name, map[string]float64{"ns_per_op": v}} }

// tableLines returns a line, at a passing ns/op, for every benchmark a
// ratio or ceiling of the table reads, so a test snapshot passes them all.
func tableLines() []line {
	var out []line
	for _, g := range table {
		switch {
		case g.fast != "":
			out = append(out, ns(g.bench, 1250*g.ratio), ns(g.fast, 1000))
		case g.ceiling > 0:
			out = append(out, ns(g.bench, float64(g.ceiling)/2))
		}
	}
	return out
}

// writeSnap writes a snapshot recorded at maxProcs holding lines plus
// every tableLines benchmark that lines does not name.
func writeSnap(t *testing.T, dir, file string, maxProcs int, lines ...line) string {
	t.Helper()
	named := map[string]bool{}
	for _, l := range lines {
		named[l.name] = true
	}
	for _, l := range tableLines() {
		if !named[l.name] {
			lines = append(lines, l)
		}
	}
	var bs []map[string]any
	for _, l := range lines {
		b := map[string]any{"pkg": "quorumplace", "name": l.name, "iters": 1}
		for k, v := range l.vals {
			b[k] = v
		}
		bs = append(bs, b)
	}
	body, err := json.Marshal(map[string]any{"commit": file, "benchtime": "0.05s", "maxprocs": maxProcs, "benchmarks": bs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func diff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code, err := run(args, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return code, out.String()
}

// set returns lines with name's field k set to v.
func set(lines []line, name, k string, v float64) []line {
	out := make([]line, len(lines))
	for i, l := range lines {
		vals := map[string]float64{}
		for kk, vv := range l.vals {
			vals[kk] = vv
		}
		if l.name == name {
			vals[k] = v
		}
		out[i] = line{l.name, vals}
	}
	return out
}

// TestRegressionDetection checks one snapshot against every gate kind. The
// passing NEW passes all of them; each mutation breaks exactly one gate
// and must fail on its own, and all mutations together must report every
// failure in one run.
func TestRegressionDetection(t *testing.T) {
	dir := t.TempDir()
	good := append(tableLines(),
		line{"BenchmarkE2GridMajority", map[string]float64{"ns_per_op": 1, "allocs_per_op": 10}},
		line{"BenchmarkE11NetsimValidation", map[string]float64{"ns_per_op": 1, "p99_delay": 4}},
		line{"BenchmarkE1QPPApprox", map[string]float64{"ns_per_op": 1, "pivots_per_op": 661}},
		line{"BenchmarkGone", map[string]float64{"ns_per_op": 1}},
	)
	base := writeSnap(t, dir, "base.json", 4, good...)
	mutations := []struct {
		gate string
		mut  func([]line) []line
		want string
	}{
		{"allocs band", func(ls []line) []line { return set(ls, "BenchmarkE2GridMajority", "allocs_per_op", 16) },
			"REGRESS   quorumplace/BenchmarkE2GridMajority"},
		{"metric band", func(ls []line) []line { return set(ls, "BenchmarkE11NetsimValidation", "p99_delay", 4.5) },
			"REGRESS   quorumplace/BenchmarkE11NetsimValidation"},
		{"exact count", func(ls []line) []line { return set(ls, "BenchmarkE1QPPApprox", "pivots_per_op", 662) },
			"REGRESS   quorumplace/BenchmarkE1QPPApprox"},
		{"ratio with CPU floor", func(ls []line) []line { return set(ls, "BenchmarkParallelQPP/workers=4", "ns_per_op", 1250*1.8) },
			"REGRESS   BenchmarkParallelQPP/workers=1 / BenchmarkParallelQPP/workers=4"},
		{"ratio without CPU floor", func(ls []line) []line { return set(ls, "BenchmarkDaemonTick/mode=warm", "ns_per_op", 1250*3) },
			"REGRESS   BenchmarkDaemonTick/mode=cold / BenchmarkDaemonTick/mode=warm"},
		{"ceiling", func(ls []line) []line { return set(ls, "BenchmarkTreeDP/nodes=100000", "ns_per_op", 12e9) },
			"REGRESS   BenchmarkTreeDP/nodes=100000 = 12s/op"},
		{"missing benchmark", func(ls []line) []line { return ls[:len(ls)-1] }, "MISSING   quorumplace/BenchmarkGone"},
	}

	code, out := diff(t, base, writeSnap(t, dir, "good.json", 4, good...))
	if code != 0 || !strings.Contains(out, "0 regressions, 0 new") {
		t.Fatalf("passing snapshot: code %d:\n%s", code, out)
	}
	all := good
	for _, m := range mutations {
		code, out := diff(t, base, writeSnap(t, dir, "one.json", 4, m.mut(good)...))
		if code != 1 || !strings.Contains(out, m.want) || !strings.Contains(out, "1 regressions") {
			t.Errorf("%s alone: code %d, want 1 with %q and one regression:\n%s", m.gate, code, m.want, out)
		}
		all = m.mut(all)
	}
	code, out = diff(t, base, writeSnap(t, dir, "all.json", 4, all...))
	if want := fmt.Sprintf("%d regressions", len(mutations)); code != 1 || !strings.Contains(out, want) {
		t.Fatalf("all gates broken: code %d, want 1 with %s:\n%s", code, want, out)
	}
	for _, m := range mutations {
		if !strings.Contains(out, m.want) {
			t.Errorf("combined run lost the %s failure %q:\n%s", m.gate, m.want, out)
		}
	}
}

// TestAllocRegressionExact: the default allocs band is enforced to the
// allocation, and only against growth.
func TestAllocRegressionExact(t *testing.T) {
	dir := t.TempDir()
	g, ok := bandFor("BenchmarkA", "allocs_per_op")
	if !ok || !g.growth {
		t.Fatal("no default one-sided allocs band")
	}
	allocs := func(v float64) line { return line{"BenchmarkA", map[string]float64{"allocs_per_op": v}} }
	old := writeSnap(t, dir, "old.json", 2, allocs(10))
	edge := 10 * (1 + g.band)
	for _, tc := range []struct {
		allocs float64
		code   int
	}{{edge, 0}, {edge + 1, 1}, {1, 0}} {
		code, out := diff(t, old, writeSnap(t, dir, "new.json", 2, allocs(tc.allocs)))
		if code != tc.code || (code == 1) != strings.Contains(out, "REGRESS   quorumplace/BenchmarkA") {
			t.Errorf("10 -> %g allocs/op: code %d, want %d:\n%s", tc.allocs, code, tc.code, out)
		}
	}
}

// TestAllocsPerOverride: a benchmark's own allocs band replaces the
// default for that benchmark only.
func TestAllocsPerOverride(t *testing.T) {
	def, _ := bandFor("BenchmarkLean", "allocs_per_op")
	n := 0
	for _, g := range table {
		if g.metric != "allocs_per_op" || g.bench == "" {
			continue
		}
		n++
		if g.band <= def.band {
			t.Fatalf("%s: override band %g does not widen the default %g", g.bench, g.band, def.band)
		}
		dir := t.TempDir()
		grown := 100 * (1 + (def.band+g.band)/2) // past the default, within the override
		old := writeSnap(t, dir, "old.json", 2,
			line{g.bench, map[string]float64{"allocs_per_op": 100}},
			line{"BenchmarkLean", map[string]float64{"allocs_per_op": 100}})
		code, out := diff(t, old, writeSnap(t, dir, "new.json", 2,
			line{g.bench, map[string]float64{"allocs_per_op": grown}},
			line{"BenchmarkLean", map[string]float64{"allocs_per_op": 100}}))
		if code != 0 {
			t.Fatalf("%s: override not applied, code %d:\n%s", g.bench, code, out)
		}
		code, out = diff(t, old, writeSnap(t, dir, "new2.json", 2,
			line{g.bench, map[string]float64{"allocs_per_op": grown}},
			line{"BenchmarkLean", map[string]float64{"allocs_per_op": grown}}))
		if code != 1 || !strings.Contains(out, "REGRESS   quorumplace/BenchmarkLean") {
			t.Fatalf("%s: override leaked to other benchmarks, code %d:\n%s", g.bench, code, out)
		}
	}
	if n == 0 {
		t.Fatal("table has no allocs override")
	}
}

// TestIgnoreNSSkipsTimings pins that ns/op never gates BASE against NEW:
// the two snapshots usually come from different machines.
func TestIgnoreNSSkipsTimings(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", 2, ns("BenchmarkA", 100))
	now := writeSnap(t, dir, "new.json", 2, ns("BenchmarkA", 900))
	code, out := diff(t, old, now)
	if code != 0 || strings.Contains(out, "REGRESS") {
		t.Fatalf("cross-machine ns/op delta failed the gate:\n%s", out)
	}
}

// TestMissingAndNew pins that a benchmark in BASE but not in NEW fails the
// gate: a benchmark that fails at runtime writes no result line, so it
// drops out of the fresh snapshot. A benchmark only NEW has is noted.
func TestMissingAndNew(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", 2, ns("BenchmarkE11NetsimValidation", 1), ns("BenchmarkKept", 1))
	now := writeSnap(t, dir, "new.json", 2, ns("BenchmarkKept", 1), ns("BenchmarkFresh", 1))
	code, out := diff(t, old, now)
	if code != 1 || !strings.Contains(out, "MISSING   quorumplace/BenchmarkE11NetsimValidation") {
		t.Fatalf("missing benchmark did not fail the gate, code %d:\n%s", code, out)
	}
	if !strings.Contains(out, "new       quorumplace/BenchmarkFresh") || !strings.Contains(out, "1 regressions, 1 new") {
		t.Fatalf("new benchmark not noted:\n%s", out)
	}
}

// TestSpeedupGate: every ratio of the table passes above its floor and
// fails below it, reading NEW alone.
func TestSpeedupGate(t *testing.T) {
	dir := t.TempDir()
	for _, g := range table {
		if g.fast == "" {
			continue
		}
		// BASE's own ratio is flat: ratios read NEW only.
		base := writeSnap(t, dir, "base.json", g.cpus, ns(g.bench, 1000), ns(g.fast, 1000))
		code, out := diff(t, base, writeSnap(t, dir, "pass.json", g.cpus, ns(g.bench, 1100*g.ratio), ns(g.fast, 1000)))
		want := fmt.Sprintf("ok        %s / %s = %.2fx", g.bench, g.fast, 1.1*g.ratio)
		if code != 0 || !strings.Contains(out, want) {
			t.Fatalf("%s: want %q, code %d:\n%s", g.bench, want, code, out)
		}
		code, out = diff(t, base, writeSnap(t, dir, "fail.json", g.cpus, ns(g.bench, 900*g.ratio), ns(g.fast, 1000)))
		if code != 1 || !strings.Contains(out, "REGRESS   "+g.bench+" / "+g.fast) {
			t.Fatalf("%s: unmet ratio did not gate, code %d:\n%s", g.bench, code, out)
		}
	}
}

// TestSpeedupMinCPUsSkip: a ratio with a CPU floor is skipped when NEW was
// recorded at fewer GOMAXPROCS, and fires at the floor.
func TestSpeedupMinCPUsSkip(t *testing.T) {
	dir := t.TempDir()
	n := 0
	for _, g := range table {
		if g.cpus == 0 {
			continue
		}
		n++
		flat := []line{ns(g.bench, 1000), ns(g.fast, 1000)}
		below := writeSnap(t, dir, "below.json", g.cpus-1, flat...)
		code, out := diff(t, below, below)
		if code != 0 || !strings.Contains(out, "skipped   "+g.bench+" / "+g.fast) {
			t.Fatalf("%s below its CPU floor not skipped, code %d:\n%s", g.bench, code, out)
		}
		code, out = diff(t, below, writeSnap(t, dir, "at.json", g.cpus, flat...))
		if code != 1 || strings.Contains(out, "skipped   "+g.bench) {
			t.Fatalf("%s: flat ratio at the CPU floor passed, code %d:\n%s", g.bench, code, out)
		}
	}
	if n == 0 {
		t.Fatal("table has no CPU-floored ratio")
	}
}

// TestSpeedupBadInputs: a ratio benchmark NEW lacks fails the gate, and
// the flag forms the gate once took are usage errors.
func TestSpeedupBadInputs(t *testing.T) {
	dir := t.TempDir()
	snap := writeSnap(t, dir, "snap.json", 2)
	body, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	lacking := filepath.Join(dir, "lacking.json")
	if err := os.WriteFile(lacking, bytes.ReplaceAll(body, []byte("mode=warm"), []byte("mode=gone")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := diff(t, snap, lacking)
	if code != 1 || !strings.Contains(out, "MISSING   BenchmarkDaemonTick/mode=cold / BenchmarkDaemonTick/mode=warm") {
		t.Fatalf("missing ratio benchmark passed, code %d:\n%s", code, out)
	}
	var buf bytes.Buffer
	for _, args := range [][]string{
		{snap},
		{"-speedup", "BenchmarkA:BenchmarkB:2", snap, snap},
		{"-max-time", "BenchmarkA=1s", snap, snap},
	} {
		if code, err := run(args, &buf); err == nil || code != 2 {
			t.Fatalf("%q accepted (code %d, err %v)", args, code, err)
		}
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, args := range [][]string{
		{empty, empty},
		{"one-arg-only"},
		{filepath.Join(dir, "absent.json"), empty},
		{"-metric", "p99_delay=0.02", empty, empty},
	} {
		if code, err := run(args, &out); err == nil || code != 2 {
			t.Fatalf("%q accepted (code %d, err %v)", args, code, err)
		}
	}
}

// TestMetricDriftGate: a banded metric fails on drift past its band in
// either direction; an unbanded one is never compared.
func TestMetricDriftGate(t *testing.T) {
	dir := t.TempDir()
	e11 := func(p99, eps float64) line {
		return line{"BenchmarkE11NetsimValidation", map[string]float64{"ns_per_op": 100, "allocs_per_op": 5, "p99_delay": p99, "events_per_sec": eps}}
	}
	old := writeSnap(t, dir, "old.json", 2, e11(4, 5000))
	drifted := writeSnap(t, dir, "drifted.json", 2, e11(4.5, 9000))

	// 12.5% drift fails a 2% band even though ns/op and allocs are identical.
	code, out := diff(t, old, drifted)
	if code != 1 || !strings.Contains(out, "REGRESS   quorumplace/BenchmarkE11NetsimValidation") || !strings.Contains(out, "p99_delay 4 -> 4.5") {
		t.Fatalf("code %d, out:\n%s", code, out)
	}
	// Ungated metrics (events_per_sec) never appear.
	if strings.Contains(out, "events_per_sec") {
		t.Fatalf("ungated metric compared:\n%s", out)
	}
	// Drift within the band passes, and the comparison is reported.
	code, out = diff(t, old, writeSnap(t, dir, "near.json", 2, e11(4.04, 1)))
	if code != 0 || !strings.Contains(out, "p99_delay 4 -> 4.04") {
		t.Fatalf("code %d, out:\n%s", code, out)
	}
	// Downward drift beyond the band also fails (determinism gate, not perf).
	code, out = diff(t, drifted, old)
	if code != 1 || !strings.Contains(out, "p99_delay 4.5 -> 4") {
		t.Fatalf("downward drift not gated, code %d:\n%s", code, out)
	}
}

// TestCountGatesExact: every zero-band count fails on a change of one in
// either direction, and on appearing from zero.
func TestCountGatesExact(t *testing.T) {
	dir := t.TempDir()
	n := 0
	for _, g := range table {
		if g.metric == "" || g.band != 0 {
			continue
		}
		n++
		count := func(v float64) line { return line{"BenchmarkCounted", map[string]float64{g.metric: v}} }
		base := writeSnap(t, dir, "base.json", 2, count(1000))
		if code, out := diff(t, base, writeSnap(t, dir, "same.json", 2, count(1000))); code != 0 {
			t.Fatalf("%s: unchanged count failed, code %d:\n%s", g.metric, code, out)
		}
		for _, v := range []float64{999, 1001} {
			if code, out := diff(t, base, writeSnap(t, dir, "moved.json", 2, count(v))); code != 1 {
				t.Fatalf("%s: 1000 -> %g passed:\n%s", g.metric, v, out)
			}
		}
		zero := writeSnap(t, dir, "zero.json", 2, count(0))
		if code, out := diff(t, zero, writeSnap(t, dir, "one.json", 2, count(1))); code != 1 {
			t.Fatalf("%s: 0 -> 1 passed:\n%s", g.metric, out)
		}
	}
	if n == 0 {
		t.Fatal("table gates no count exactly")
	}
}

func TestMetricMissingIsNote(t *testing.T) {
	dir := t.TempDir()
	bare := writeSnap(t, dir, "bare.json", 2, ns("BenchmarkA", 100))
	withP99 := writeSnap(t, dir, "p99.json", 2, line{"BenchmarkA", map[string]float64{"ns_per_op": 100, "p99_delay": 4}})
	code, out := diff(t, bare, withP99)
	if code != 0 || !strings.Contains(out, "note") || !strings.Contains(out, "p99_delay in NEW only") {
		t.Fatalf("metric new in NEW: want a passing note, code %d:\n%s", code, out)
	}
	// A gated metric BASE has and NEW lacks fails, as a missing benchmark does.
	code, out = diff(t, withP99, bare)
	if code != 1 || !strings.Contains(out, "p99_delay (in BASE, not in NEW)") {
		t.Fatalf("metric dropped from NEW passed, code %d:\n%s", code, out)
	}
	// Metrics on neither side stay silent.
	code, out = diff(t, bare, bare)
	if code != 0 || strings.Contains(out, "p99_delay") {
		t.Fatalf("absent metric surfaced, code %d:\n%s", code, out)
	}
}

// TestMaxTimeGate: every ceiling of the table holds at and below its limit
// and fails above it.
func TestMaxTimeGate(t *testing.T) {
	dir := t.TempDir()
	for _, g := range table {
		if g.ceiling == 0 {
			continue
		}
		for _, tc := range []struct {
			frac float64
			code int
		}{{0.72, 0}, {1, 0}, {1.2, 1}} {
			got := time.Duration(tc.frac * float64(g.ceiling))
			snap := writeSnap(t, dir, "snap.json", 2, ns(g.bench, float64(got)))
			code, out := diff(t, snap, snap)
			want := fmt.Sprintf("ok        %s = %v/op", g.bench, got)
			if tc.code == 1 {
				want = fmt.Sprintf("REGRESS   %s = %v/op", g.bench, got)
			}
			if code != tc.code || !strings.Contains(out, want) {
				t.Fatalf("%s at %v: code %d, want %d and %q:\n%s", g.bench, got, code, tc.code, want, out)
			}
		}
	}
}

// TestTableMatchesSnapshot checks the table against the one committed
// snapshot: every entry gives its reason and names benchmarks and metrics
// the snapshot records, so no gate silently matches nothing, and the
// snapshot passes against itself.
func TestTableMatchesSnapshot(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) != 1 {
		t.Fatalf("want exactly one committed BENCH_*.json, got %v (%v)", paths, err)
	}
	s, err := readSnapshot(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	names, metrics := map[string]bool{}, map[string]bool{}
	for _, b := range s.Benchmarks {
		names[b.Name] = true
		for m := range b.Values {
			metrics[m] = true
		}
	}
	for _, g := range table {
		if g.why == "" {
			t.Errorf("%+v gives no reason", g)
		}
		for _, name := range []string{g.bench, g.fast} {
			if name != "" && !names[name] {
				t.Errorf("%s is not in %s", name, paths[0])
			}
		}
		if g.metric != "" && !metrics[g.metric] {
			t.Errorf("no benchmark in %s reports %s", paths[0], g.metric)
		}
	}
	code, out := diff(t, paths[0], paths[0])
	if code != 0 || !strings.Contains(out, " 0 regressions, 0 new") {
		t.Fatalf("committed snapshot fails against itself, code %d:\n%s", code, out)
	}
}
