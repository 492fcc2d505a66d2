package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnap(t *testing.T, dir, name string, lines []benchLine) string {
	return writeSnapProcs(t, dir, name, 8, lines)
}

func writeSnapProcs(t *testing.T, dir, name string, maxProcs int, lines []benchLine) string {
	t.Helper()
	s := snapshot{Date: "2026-08-06", Commit: "abc", Benchtime: "1x", MaxProcs: maxProcs, Benchmarks: lines}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func diff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code, err := run(args, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, errOut.String())
	}
	return code, out.String()
}

// TestRegressionDetection runs one invocation carrying every gate kind.
// The baseline NEW passes all of them; each mutation breaks exactly one
// gate and must fail on its own, and all mutations together must report
// every failure in one run.
func TestRegressionDetection(t *testing.T) {
	dir := t.TempDir()
	gates := []string{
		"-allocs-threshold", "0.5",
		"-metric", "p99_delay=0.02",
		"-speedup", "BenchmarkQPP/workers=1:BenchmarkQPP/workers=4:1.8:4," +
			"BenchmarkTick/mode=cold:BenchmarkTick/mode=warm:3.0," +
			"BenchmarkQPP/workers=1:BenchmarkQPP/workers=8:7.5:16",
		"-max-time", "BenchmarkTreeDP/nodes=100000=10s",
	}
	line := func(name string, ns, allocs float64, p99 float64) benchLine {
		b := benchLine{Pkg: "quorumplace", Name: name, NsPerOp: ns, AllocsPerOp: allocs}
		if p99 != 0 {
			b.Extra = map[string]float64{"p99_delay": p99}
		}
		return b
	}
	good := func() []benchLine {
		return []benchLine{
			line("BenchmarkAlloc", 100, 10, 0),
			line("BenchmarkE11", 100, 5, 4.0),
			line("BenchmarkQPP/workers=1", 1000, 0, 0),
			line("BenchmarkQPP/workers=4", 400, 0, 0),
			line("BenchmarkQPP/workers=8", 900, 0, 0), // 1.1x, but the 16-CPU floor skips it
			line("BenchmarkTick/mode=cold", 400, 0, 0),
			line("BenchmarkTick/mode=warm", 100, 0, 0),
			line("BenchmarkTreeDP/nodes=100000", 1e9, 0, 0),
			line("BenchmarkGone", 100, 0, 0),
		}
	}
	// benchLine marshals without Extra, so the metrics are written raw.
	write := func(name string, lines []benchLine) string {
		t.Helper()
		type raw map[string]any
		var bs []raw
		for _, b := range lines {
			r := raw{"pkg": b.Pkg, "name": b.Name, "iters": 1, "ns_per_op": b.NsPerOp, "allocs_per_op": b.AllocsPerOp}
			for k, v := range b.Extra {
				r[k] = v
			}
			bs = append(bs, r)
		}
		body, err := json.Marshal(map[string]any{"commit": "new", "benchtime": "1x", "maxprocs": 8, "benchmarks": bs})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", good())

	set := func(name string, f func(*benchLine)) func([]benchLine) []benchLine {
		return func(ls []benchLine) []benchLine {
			for i := range ls {
				if ls[i].Name == name {
					f(&ls[i])
				}
			}
			return ls
		}
	}
	mutations := []struct {
		gate string
		mut  func([]benchLine) []benchLine
		want string
	}{
		{"allocs", set("BenchmarkAlloc", func(b *benchLine) { b.AllocsPerOp = 16 }), "REGRESS   quorumplace/BenchmarkAlloc"},
		{"metric", set("BenchmarkE11", func(b *benchLine) { b.Extra["p99_delay"] = 4.5 }), "DRIFT     quorumplace/BenchmarkE11"},
		{"speedup with CPU floor", set("BenchmarkQPP/workers=4", func(b *benchLine) { b.NsPerOp = 800 }),
			"REGRESS   BenchmarkQPP/workers=1 / BenchmarkQPP/workers=4"},
		{"speedup without CPU floor", set("BenchmarkTick/mode=warm", func(b *benchLine) { b.NsPerOp = 200 }),
			"REGRESS   BenchmarkTick/mode=cold / BenchmarkTick/mode=warm"},
		{"max-time", set("BenchmarkTreeDP/nodes=100000", func(b *benchLine) { b.NsPerOp = 12e9 }),
			"REGRESS   BenchmarkTreeDP/nodes=100000 = 12s/op"},
		{"missing benchmark", func(ls []benchLine) []benchLine { return ls[:len(ls)-1] }, "MISSING   quorumplace/BenchmarkGone"},
	}

	code, out := diff(t, append(gates, base, write("good.json", good()))...)
	if code != 0 || !strings.Contains(out, "0 regressions") || !strings.Contains(out, "skipped   BenchmarkQPP/workers=1 / BenchmarkQPP/workers=8") {
		t.Fatalf("passing snapshot: code %d:\n%s", code, out)
	}
	all := good()
	for _, m := range mutations {
		code, out := diff(t, append(gates, base, write("one.json", m.mut(good())))...)
		if code != 1 || !strings.Contains(out, m.want) || !strings.Contains(out, "1 regressions") {
			t.Errorf("%s alone: code %d, want 1 with %q and one regression:\n%s", m.gate, code, m.want, out)
		}
		all = m.mut(all)
	}
	code, out = diff(t, append(gates, base, write("all.json", all))...)
	if code != 1 || !strings.Contains(out, "6 regressions") {
		t.Fatalf("all gates broken: code %d, want 1 with 6 regressions:\n%s", code, out)
	}
	for _, m := range mutations {
		if !strings.Contains(out, m.want) {
			t.Errorf("combined run lost the %s failure %q:\n%s", m.gate, m.want, out)
		}
	}
}

func TestAllocRegressionExact(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 5},
	})
	now := writeSnap(t, dir, "new.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 6},
	})
	code, out := diff(t, old, now)
	if code != 1 || !strings.Contains(out, "allocs/op") {
		t.Fatalf("one extra alloc not flagged; code %d:\n%s", code, out)
	}
}

func TestAllocsPerOverride(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkSetupHeavy/k=5", NsPerOp: 100, AllocsPerOp: 76},
		{Pkg: "quorumplace", Name: "BenchmarkLean", NsPerOp: 100, AllocsPerOp: 5},
	})
	now := writeSnap(t, dir, "new.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkSetupHeavy/k=5", NsPerOp: 100, AllocsPerOp: 118}, // +55%: amortization
		{Pkg: "quorumplace", Name: "BenchmarkLean", NsPerOp: 100, AllocsPerOp: 5},
	})

	// Global band too tight: the setup-heavy benchmark fails.
	code, out := diff(t, "-allocs-threshold", "0.5", old, now)
	if code != 1 || !strings.Contains(out, "BenchmarkSetupHeavy/k=5") {
		t.Fatalf("amortized allocs growth not flagged; code %d:\n%s", code, out)
	}

	// A per-benchmark override waives only that benchmark.
	code, out = diff(t, "-allocs-threshold", "0.5",
		"-allocs-per", "BenchmarkSetupHeavy/k=5=1.0", old, now)
	if code != 0 {
		t.Fatalf("-allocs-per override not applied; code %d:\n%s", code, out)
	}

	// The override does not loosen other benchmarks.
	now2 := writeSnap(t, dir, "new2.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkSetupHeavy/k=5", NsPerOp: 100, AllocsPerOp: 118},
		{Pkg: "quorumplace", Name: "BenchmarkLean", NsPerOp: 100, AllocsPerOp: 9}, // +80%
	})
	code, out = diff(t, "-allocs-threshold", "0.5",
		"-allocs-per", "BenchmarkSetupHeavy/k=5=1.0", old, now2)
	if code != 1 || !strings.Contains(out, "BenchmarkLean") {
		t.Fatalf("override leaked to other benchmarks; code %d:\n%s", code, out)
	}

	// Malformed spec is a usage error.
	var sb, eb bytes.Buffer
	code, err := run([]string{"-allocs-per", "nonsense", old, now}, &sb, &eb)
	if code != 2 || err == nil {
		t.Fatalf("malformed -allocs-per accepted: code %d err %v", code, err)
	}
}

// TestIgnoreNSSkipsTimings pins that ns/op never gates BASE against NEW:
// the two snapshots usually come from different machines.
func TestIgnoreNSSkipsTimings(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "old.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 5},
	})
	now := writeSnap(t, dir, "new.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkA", NsPerOp: 900, AllocsPerOp: 5}, // different machine
	})
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
	old := writeSnap(t, dir, "old.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkE11NetsimValidation", NsPerOp: 1, AllocsPerOp: 0},
		{Pkg: "quorumplace", Name: "BenchmarkKept", NsPerOp: 1, AllocsPerOp: 0},
	})
	now := writeSnap(t, dir, "new.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkKept", NsPerOp: 1, AllocsPerOp: 0},
		{Pkg: "quorumplace", Name: "BenchmarkFresh", NsPerOp: 1, AllocsPerOp: 0},
	})
	code, out := diff(t, old, now)
	if code != 1 || !strings.Contains(out, "MISSING   quorumplace/BenchmarkE11NetsimValidation") {
		t.Fatalf("missing benchmark did not fail the gate, code %d:\n%s", code, out)
	}
	if !strings.Contains(out, "new       quorumplace/BenchmarkFresh") || !strings.Contains(out, "1 regressions, 1 new") {
		t.Fatalf("new benchmark not noted:\n%s", out)
	}
}

func TestSpeedupGate(t *testing.T) {
	dir := t.TempDir()
	// BASE's own ratio is flat: speedups read NEW only.
	base := writeSnap(t, dir, "base.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkParallelQPP/workers=1", NsPerOp: 1000},
		{Pkg: "quorumplace", Name: "BenchmarkParallelQPP/workers=4", NsPerOp: 1000},
	})
	snap := writeSnap(t, dir, "snap.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkParallelQPP/workers=1", NsPerOp: 1000},
		{Pkg: "quorumplace", Name: "BenchmarkParallelQPP/workers=4", NsPerOp: 400},
	})

	// 1000/400 = 2.5x >= 1.8 passes.
	code, out := diff(t, "-speedup", "BenchmarkParallelQPP/workers=1:BenchmarkParallelQPP/workers=4:1.8", base, snap)
	if code != 0 || !strings.Contains(out, "2.50x") {
		t.Fatalf("code %d:\n%s", code, out)
	}

	// 2.5x < 3.0 fails.
	code, out = diff(t, "-speedup", "BenchmarkParallelQPP/workers=1:BenchmarkParallelQPP/workers=4:3.0", base, snap)
	if code != 1 || !strings.Contains(out, "REGRESS") {
		t.Fatalf("unmet ratio did not gate, code %d:\n%s", code, out)
	}

	// pkg-qualified names resolve too.
	code, _ = diff(t, "-speedup",
		"quorumplace/BenchmarkParallelQPP/workers=1:quorumplace/BenchmarkParallelQPP/workers=4:1.8", base, snap)
	if code != 0 {
		t.Fatalf("pkg-qualified names rejected, code %d", code)
	}
}

func TestSpeedupMinCPUsSkip(t *testing.T) {
	dir := t.TempDir()
	lines := []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkParallelQPP/workers=1", NsPerOp: 1000},
		{Pkg: "quorumplace", Name: "BenchmarkParallelQPP/workers=4", NsPerOp: 1000},
	}
	// Recorded on a 1-CPU box: workers can't overlap, so the ratio is ~1x.
	one := writeSnapProcs(t, dir, "one.json", 1, lines)
	four := writeSnapProcs(t, dir, "four.json", 4, lines)
	const floored = "BenchmarkParallelQPP/workers=1:BenchmarkParallelQPP/workers=4:1.8:4"
	code, out := diff(t, "-speedup", floored, one, one)
	if code != 0 || !strings.Contains(out, "skipped") {
		t.Fatalf("1-CPU snapshot not skipped, code %d:\n%s", code, out)
	}
	// The floor reads NEW's maxprocs: met there, the flat ratio fails.
	code, out = diff(t, "-speedup", floored, one, four)
	if code != 1 || strings.Contains(out, "skipped") {
		t.Fatalf("flat ratio at the CPU floor passed, code %d:\n%s", code, out)
	}
	// Without a floor the flat ratio fails even on one CPU.
	code, _ = diff(t, "-speedup", "BenchmarkParallelQPP/workers=1:BenchmarkParallelQPP/workers=4:1.8", one, one)
	if code != 1 {
		t.Fatalf("flat ratio passed without a CPU floor, code %d", code)
	}
}

func TestSpeedupBadInputs(t *testing.T) {
	dir := t.TempDir()
	snap := writeSnap(t, dir, "snap.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkA", NsPerOp: 100},
	})
	var out bytes.Buffer
	for _, spec := range []string{
		"onlyonefield",
		"BenchmarkA:BenchmarkA:0",     // non-positive ratio
		"BenchmarkA:BenchmarkA:1:0",   // non-positive CPU floor
		"BenchmarkA:BenchmarkA:1:x",   // non-numeric CPU floor
		"BenchmarkA:BenchmarkA:1:4:5", // too many fields
	} {
		if code, err := run([]string{"-speedup", spec, snap, snap}, &out, &out); err == nil || code != 2 {
			t.Fatalf("bad spec %q accepted (code %d, err %v)", spec, code, err)
		}
	}
	// The single-snapshot form is gone.
	if code, err := run([]string{"-speedup", "BenchmarkA:BenchmarkA:1", snap}, &out, &out); err == nil || code != 2 {
		t.Fatalf("one snapshot accepted (code %d, err %v)", code, err)
	}
	// A benchmark NEW lacks fails the gate.
	code, got := diff(t, "-speedup", "BenchmarkNope:BenchmarkA:2", snap, snap)
	if code != 1 || !strings.Contains(got, "MISSING   BenchmarkNope / BenchmarkA") {
		t.Fatalf("unknown benchmark passed, code %d:\n%s", code, got)
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run([]string{empty, empty}, &out, &out); err == nil || code != 2 {
		t.Fatalf("empty snapshot accepted (code %d, err %v)", code, err)
	}
	if code, err := run([]string{"one-arg-only"}, &out, &out); err == nil || code != 2 {
		t.Fatalf("single arg accepted (code %d, err %v)", code, err)
	}
	if code, err := run([]string{"-metric", "p99_delay=-1", empty, empty}, &out, &out); err == nil || code != 2 {
		t.Fatalf("negative band accepted (code %d, err %v)", code, err)
	}
}

// writeRawSnap writes a snapshot with custom-metric keys, which only exist
// in the raw JSON (benchLine.Extra is populated by UnmarshalJSON).
func writeRawSnap(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMetricDriftGate(t *testing.T) {
	dir := t.TempDir()
	old := writeRawSnap(t, dir, "old.json", `{
		"date": "2026-08-06", "commit": "abc", "benchtime": "1x", "maxprocs": 8,
		"benchmarks": [
			{"pkg": "quorumplace", "name": "BenchmarkE11NetsimValidation", "iters": 10,
			 "ns_per_op": 100, "allocs_per_op": 5, "p99_delay": 4.00, "events_per_sec": 5000}
		]}`)
	drifted := writeRawSnap(t, dir, "new.json", `{
		"date": "2026-08-07", "commit": "def", "benchtime": "1x", "maxprocs": 8,
		"benchmarks": [
			{"pkg": "quorumplace", "name": "BenchmarkE11NetsimValidation", "iters": 10,
			 "ns_per_op": 100, "allocs_per_op": 5, "p99_delay": 4.50, "events_per_sec": 9000}
		]}`)

	// 12.5% drift fails a 2% band even though ns/op and allocs are identical.
	code, out := diff(t, "-metric", "p99_delay=0.02", old, drifted)
	if code != 1 || !strings.Contains(out, "DRIFT") || !strings.Contains(out, "p99_delay") {
		t.Fatalf("code %d, out:\n%s", code, out)
	}
	// Ungated metrics (events_per_sec) never fail.
	if strings.Contains(out, "events_per_sec") {
		t.Fatalf("ungated metric compared:\n%s", out)
	}
	// A wide band passes, and the metric comparison is reported.
	code, out = diff(t, "-metric", "p99_delay=0.2", old, drifted)
	if code != 0 || !strings.Contains(out, "p99_delay 4 -> 4.5") {
		t.Fatalf("code %d, out:\n%s", code, out)
	}
	// Downward drift beyond the band also fails (determinism gate, not perf).
	code, out = diff(t, "-metric", "p99_delay=0.02", drifted, old)
	if code != 1 || !strings.Contains(out, "DRIFT") {
		t.Fatalf("downward drift not gated, code %d:\n%s", code, out)
	}
}

func TestMetricMissingIsNote(t *testing.T) {
	dir := t.TempDir()
	old := writeRawSnap(t, dir, "old.json", `{
		"date": "2026-08-06", "commit": "abc", "benchtime": "1x", "maxprocs": 8,
		"benchmarks": [
			{"pkg": "quorumplace", "name": "BenchmarkA", "iters": 10, "ns_per_op": 100, "allocs_per_op": 5}
		]}`)
	now := writeRawSnap(t, dir, "new.json", `{
		"date": "2026-08-07", "commit": "def", "benchtime": "1x", "maxprocs": 8,
		"benchmarks": [
			{"pkg": "quorumplace", "name": "BenchmarkA", "iters": 10, "ns_per_op": 100, "allocs_per_op": 5, "p99_delay": 4}
		]}`)
	code, out := diff(t, "-metric", "p99_delay=0.02", old, now)
	if code != 0 {
		t.Fatalf("one-sided metric gated, code %d:\n%s", code, out)
	}
	if !strings.Contains(out, "note") || !strings.Contains(out, "one side only") {
		t.Fatalf("missing-side note absent:\n%s", out)
	}
	// Metric absent on both sides: silent, still passing.
	code, out = diff(t, "-metric", "nonexistent=0.1", old, now)
	if code != 0 || strings.Contains(out, "nonexistent") {
		t.Fatalf("absent metric surfaced, code %d:\n%s", code, out)
	}
	// Malformed -metric spec is a usage error.
	var buf bytes.Buffer
	if code, err := run([]string{"-metric", "p99_delay", old, now}, &buf, &buf); err == nil || code != 2 {
		t.Fatalf("bad -metric spec accepted (code %d, err %v)", code, err)
	}
}

func TestMaxTimeGate(t *testing.T) {
	dir := t.TempDir()
	snap := writeSnap(t, dir, "snap.json", []benchLine{
		{Pkg: "quorumplace", Name: "BenchmarkTreeDP/nodes=100000", NsPerOp: 7.2e9}, // 7.2s
		{Pkg: "quorumplace", Name: "BenchmarkA", NsPerOp: 100},
	})

	// 7.2s <= 10s passes; sub-benchmark names with '=' parse.
	code, out := diff(t, "-max-time", "BenchmarkTreeDP/nodes=100000=10s", snap, snap)
	if code != 0 || !strings.Contains(out, "ok        BenchmarkTreeDP/nodes=100000 = 7.2s/op") {
		t.Fatalf("code %d:\n%s", code, out)
	}

	// 7.2s > 5s fails.
	code, out = diff(t, "-max-time", "BenchmarkTreeDP/nodes=100000=5s", snap, snap)
	if code != 1 || !strings.Contains(out, "REGRESS") {
		t.Fatalf("exceeded ceiling did not gate, code %d:\n%s", code, out)
	}

	// A ceiling on a benchmark NEW lacks fails the gate.
	code, out = diff(t, "-max-time", "BenchmarkNope=1s", snap, snap)
	if code != 1 || !strings.Contains(out, "MISSING   BenchmarkNope") {
		t.Fatalf("unknown benchmark passed, code %d:\n%s", code, out)
	}

	var buf bytes.Buffer
	// Malformed duration.
	if code, err := run([]string{"-max-time", "BenchmarkA=verylong", snap, snap}, &buf, &buf); err == nil || code != 2 {
		t.Fatalf("bad duration accepted (code %d, err %v)", code, err)
	}
	// Missing '='.
	if code, err := run([]string{"-max-time", "nodelimiter", snap, snap}, &buf, &buf); err == nil || code != 2 {
		t.Fatalf("missing delimiter accepted (code %d, err %v)", code, err)
	}
}
