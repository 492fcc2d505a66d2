package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quorumplace/internal/heat"
	"quorumplace/internal/obs"
	"quorumplace/internal/obs/export"
)

func demoServer(t *testing.T) *export.Server {
	t.Helper()
	c := obs.NewCollector()
	root := c.Start("netsim.run")
	c.Start("netsim.access").End()
	root.End()
	c.Count("lp.pivots", 42)
	c.Gauge("placement.qpp_workers", 4)
	for i := 1; i <= 100; i++ {
		c.Observe("netsim.access_latency", float64(i))
	}
	s, err := export.Serve("127.0.0.1:0", func() *obs.Snapshot { return c.Snapshot() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestOnceDashboard(t *testing.T) {
	s := demoServer(t)
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", s.Addr(), "-once"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"qppmon —", "counters", "lp.pivots", "42",
		"gauges", "placement.qpp_workers",
		"histograms", "netsim.access_latency", "p99",
		"spans", "netsim.run/netsim.access",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dashboard missing %q\n%s", want, text)
		}
	}
	// One-shot frames must not emit cursor-control escapes.
	if strings.Contains(text, "\x1b") {
		t.Error("one-shot frame contains ANSI escapes")
	}
}

func TestFramesPolling(t *testing.T) {
	s := demoServer(t)
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", s.Addr(), "-frames", "3", "-interval", "1ms"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := strings.Count(out.String(), "qppmon —"); got != 3 {
		t.Fatalf("rendered %d frames, want 3", got)
	}
	if !strings.Contains(out.String(), "poll 3") {
		t.Errorf("poll counter not advancing:\n%s", out.String())
	}
}

func TestValidateFlag(t *testing.T) {
	s := demoServer(t)
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", s.Addr(), "-validate"}, &out, &errb); err != nil {
		t.Fatalf("validate against live endpoint: %v", err)
	}
	if !strings.Contains(out.String(), "valid Prometheus") {
		t.Errorf("unexpected validate output %q", out.String())
	}
	// A dead endpoint must fail.
	if err := run([]string{"-addr", "127.0.0.1:1", "-validate"}, &out, &errb); err == nil {
		t.Error("validate against dead endpoint succeeded")
	}
}

func TestOnceAgainstDeadEndpoint(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", "127.0.0.1:1", "-once"}, &out, &errb); err == nil {
		t.Fatal("one-shot render against dead endpoint succeeded")
	}
}

func TestTailJSONL(t *testing.T) {
	trace := `{"type":"span","id":1,"name":"placement.qpp","dur_us":1500}
{"type":"span","id":2,"parent":1,"name":"ssqpp.lp","dur_us":800}
{"type":"span","id":3,"parent":1,"name":"ssqpp.lp","dur_us":200}
{"type":"counter","name":"lp.pivots","value":321}
{"type":"gauge","name":"placement.qpp_workers","value":8}
{"type":"hist","name":"lp.pivots_per_solve","hist":{"count":10,"sum":100,"min":1,"max":20,"mean":10,"p50":9,"p95":18,"p99":19,"p999":20}}
`
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-tail", path}, &out, &errb); err != nil {
		t.Fatalf("tail: %v", err)
	}
	text := out.String()
	// Spans roll up by path, as on the live endpoint.
	for _, want := range []string{"lp.pivots", "321", "placement.qpp_workers", "lp.pivots_per_solve", "placement.qpp/ssqpp.lp"} {
		if !strings.Contains(text, want) {
			t.Errorf("tail dashboard missing %q\n%s", want, text)
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-tail", bad}, &out, &errb); err == nil {
		t.Error("tail accepted malformed JSONL")
	}
}

// heatServer is demoServer plus a published heat sketch, so the dashboard
// shows the workload-heat panel.
func heatServer(t *testing.T) *export.Server {
	t.Helper()
	c := obs.NewCollector()
	c.Count("netsim.events", 30)
	obs.Enable(c)
	t.Cleanup(func() { obs.Disable() })
	ht := heat.New(heat.Options{})
	for i := 0; i < 30; i++ {
		ht.Observe(float64(i)/10, i%3, []int{0, 1})
	}
	ht.Publish([]float64{1, 1, 4})
	s, err := export.Serve("127.0.0.1:0", func() *obs.Snapshot { return c.Snapshot() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestHeatPanel renders the workload-heat panel from published heat.*
// gauges and checks the raw gauge rows are folded into it instead of the
// generic gauges section.
func TestHeatPanel(t *testing.T) {
	s := heatServer(t)
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", s.Addr(), "-once"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"workload heat", "drift TV (cumulative)", "drift TV (recent, EWMA)",
		"top drifting client", "hot client", "hot node",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("heat panel missing %q\n%s", want, text)
		}
	}
	if strings.Contains(text, "heat.drift_tv") {
		t.Errorf("raw heat.* gauge rows leaked into the gauges panel:\n%s", text)
	}
}

// TestJSONOutput drives -json in both one-shot modes: the output must be
// a decodable payload with the gauges intact and no ANSI escapes, and
// -json without a one-shot mode must be rejected.
func TestJSONOutput(t *testing.T) {
	s := heatServer(t)
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", s.Addr(), "-once", "-json"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, errb.String())
	}
	var p export.Payload
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if p.Counters["netsim.events"] != 30 {
		t.Errorf("netsim.events = %d, want 30", p.Counters["netsim.events"])
	}
	if p.Gauges["heat.accesses"] != 30 {
		t.Errorf("heat.accesses = %v, want 30", p.Gauges["heat.accesses"])
	}
	if bytes.ContainsRune(out.Bytes(), '\x1b') {
		t.Error("-json output contains ANSI escapes")
	}

	trace := `{"type":"gauge","name":"placement.qpp_workers","value":8}` + "\n"
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-tail", path, "-json"}, &out, &errb); err != nil {
		t.Fatalf("tail -json: %v", err)
	}
	var tp export.Payload
	if err := json.Unmarshal(out.Bytes(), &tp); err != nil {
		t.Fatalf("tail -json output is not valid JSON: %v", err)
	}
	if tp.Gauges["placement.qpp_workers"] != 8 {
		t.Errorf("tail gauge = %v, want 8", tp.Gauges["placement.qpp_workers"])
	}

	if err := run([]string{"-addr", s.Addr(), "-json"}, &out, &errb); err == nil {
		t.Error("-json without -once/-tail accepted")
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil, 10); s != "" {
		t.Errorf("empty input → %q", s)
	}
	s := sparkline([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 8)
	if s != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp = %q", s)
	}
	if s := sparkline([]float64{5, 5, 5}, 8); s != "▁▁▁" {
		t.Errorf("flat = %q", s)
	}
	// Longer than width keeps the most recent values.
	if s := sparkline([]float64{0, 0, 0, 0, 1, 8}, 2); s != "▁█" {
		t.Errorf("window = %q", s)
	}
}
