package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-quick", "-only", "E9"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "E9") || !strings.Contains(got, "Majority") {
		t.Fatalf("report missing E9 header:\n%s", got)
	}
	if errOut.Len() != 0 {
		t.Errorf("unexpected stderr output: %s", errOut.String())
	}
}

func TestRunCSVAndMarkdown(t *testing.T) {
	var csv, md bytes.Buffer
	if err := run([]string{"-quick", "-only", "E9", "-csv"}, &csv, &csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "# E9") {
		t.Errorf("csv output missing header: %q", firstLine(csv.String()))
	}
	if err := run([]string{"-quick", "-only", "E9", "-md"}, &md, &md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "|") {
		t.Errorf("markdown output has no table: %q", firstLine(md.String()))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E999"}, &out, &out); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

// TestRunTraceAndStats runs a solver-heavy experiment with -trace and
// -stats and checks the emitted JSONL trace covers the LP → flow → GAP
// pipeline with nonzero counters.
func TestRunTraceAndStats(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errOut bytes.Buffer
	if err := run([]string{"-quick", "-only", "E4", "-trace", traceFile, "-stats"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	spanNames := map[string]bool{}
	counters := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var rec struct {
			Type  string   `json:"type"`
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		switch rec.Type {
		case "span":
			spanNames[rec.Name] = true
		case "counter":
			if rec.Value != nil {
				counters[rec.Name] = *rec.Value
			}
		}
	}
	for _, want := range []string{"placement.ssqpp", "ssqpp.lp", "lp.solve", "lp.phase1", "lp.phase2", "ssqpp.round", "gap.round", "flow.assign", "flow.mincostflow"} {
		if !spanNames[want] {
			t.Errorf("trace missing span %q", want)
		}
	}
	for _, want := range []string{"lp.pivots", "lp.solves", "flow.augmentations", "gap.slots"} {
		if counters[want] <= 0 {
			t.Errorf("trace counter %s = %v, want > 0", want, counters[want])
		}
	}

	stats := errOut.String()
	if !strings.Contains(stats, "telemetry summary") || !strings.Contains(stats, "lp.pivots") {
		t.Errorf("-stats summary missing expected content:\n%s", stats)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestRunHeat installs the process-wide heat sketch across an experiment
// run: E11's simulated accesses all land in the sketch, the drift report
// prints on stderr, and — the suite running exactly its uniform access mix
// — the cumulative drift TV is 0, so any threshold passes.
func TestRunHeat(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-quick", "-only", "E11", "-heat", "-drift-threshold", "0.001"}, &out, &errOut); err != nil {
		t.Fatalf("heat run failed: %v\n%s", err, errOut.String())
	}
	got := errOut.String()
	if !regexp.MustCompile(`heat: [1-9]\d* accesses, [1-9]\d* messages across [1-9]\d* epochs`).MatchString(got) {
		t.Errorf("heat totals line missing or empty:\n%s", got)
	}
	if !strings.Contains(got, "drift TV 0.0000") {
		t.Errorf("uniform suite should report zero drift:\n%s", got)
	}
	if !strings.Contains(got, "hot client") {
		t.Errorf("heavy-hitter lines missing:\n%s", got)
	}
}

func TestRunHeatBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-drift-threshold", "0.5"}, &buf, &buf); err == nil {
		t.Fatal("-drift-threshold without -heat accepted")
	}
	if err := run([]string{"-heat", "-drift-threshold", "1.5"}, &buf, &buf); err == nil {
		t.Fatal("-drift-threshold > 1 accepted")
	}
}

// TestRunMetricsAddr serves live metrics during an experiment run and
// validates a Prometheus scrape while -metrics-hold keeps the endpoint up.
func TestRunMetricsAddr(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-quick", "-only", "E9", "-metrics-addr", "127.0.0.1:0", "-metrics-hold", "3s"}, &out, &errOut)
	}()
	var url string
	for i := 0; i < 300; i++ {
		if m := regexp.MustCompile(`serving metrics on (http://\S+)`).FindStringSubmatch(errOut.String()); m != nil {
			url = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if url == "" {
		t.Fatalf("metrics server never announced itself:\n%s", errOut.String())
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "qpp_") {
		t.Fatalf("exposition missing qpp_ metrics:\n%s", body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the metrics test reads stderr
// from the test goroutine while run() writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestExperimentsAppendixIsCurrent pins EXPERIMENTS.md's full-output
// appendix to what `qppeval -seed 1` prints today, byte for byte, so a
// change that moves any table row must re-record the appendix with it.
func TestExperimentsAppendixIsCurrent(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	const open = "## Full output (`go run ./cmd/qppeval -seed 1`)\n\n```\n"
	i := bytes.Index(doc, []byte(open))
	j := bytes.LastIndex(doc, []byte("```"))
	if i < 0 || j < i+len(open) {
		t.Fatal("EXPERIMENTS.md has no fenced full-output appendix")
	}
	want := string(doc[i+len(open) : j])
	var out, errOut bytes.Buffer
	if err := run([]string{"-seed", "1"}, &out, &errOut); err != nil {
		t.Fatalf("qppeval -seed 1: %v\n%s", err, errOut.String())
	}
	if got := out.String(); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for k := 0; k < len(gl) || k < len(wl); k++ {
			var g, w string
			if k < len(gl) {
				g = gl[k]
			}
			if k < len(wl) {
				w = wl[k]
			}
			if g != w {
				t.Fatalf("appendix line %d is stale; re-record it from `go run ./cmd/qppeval -seed 1`:\n  appendix: %q\n  qppeval:  %q", k+1, w, g)
			}
		}
	}
}
