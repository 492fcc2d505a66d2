package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	qp "quorumplace"
)

func TestBuildGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []string{"geometric", "path", "cycle", "tree", "erdos", "hypercube", "cliques"} {
		g, err := buildGraph(kind, 12, rng)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", kind)
		}
		if !g.Connected() {
			t.Fatalf("%s: disconnected", kind)
		}
	}
	if _, err := buildGraph("bogus", 5, rng); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestBuildSystem checks the -system specs qpp builds its system from, and
// the Majority threshold the -specialized layout reads back off the system.
func TestBuildSystem(t *testing.T) {
	cases := []struct {
		spec     string
		universe int
		wantErr  bool
	}{
		{"grid:3", 9, false},
		{"majority:5:3", 5, false},
		{"fpp:2", 7, false},
		{"star:4", 4, false},
		{"wheel:5", 5, false},
		{"grid", 0, true},
		{"majority:5", 0, true},
		{"majority:x:3", 0, true},
		{"grid:x", 0, true},
		{"fpp", 0, true},
		{"unknown:1", 0, true},
	}
	for _, tc := range cases {
		sys, err := qp.ParseSystem(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: accepted", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.spec, err)
			continue
		}
		if sys.Universe() != tc.universe {
			t.Errorf("%s: universe %d, want %d", tc.spec, sys.Universe(), tc.universe)
		}
		if th := qp.MinQuorumSize(sys); tc.spec == "majority:5:3" && th != 3 {
			t.Errorf("majority threshold %d, want 3", th)
		}
	}
}

func TestRunBasic(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-graph", "path", "-nodes", "8", "-system", "grid:2", "-sim", "50"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"instance: grid-2x2",
		"LP-rounding solver",
		"placement (element -> node):",
		"simulated 400 accesses",
		"p95",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunSpecialized runs the §4 layouts; the Majority layout reads its
// threshold from the parsed system.
func TestRunSpecialized(t *testing.T) {
	for spec, want := range map[string]string{"grid:2": "grid layout (Thm 1.3)", "majority:5:3": "majority layout (Thm 1.3)"} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-graph", "path", "-nodes", "8", "-system", spec, "-specialized", "-audit=false"}, &out, &errOut); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s: output missing %q:\n%s", spec, want, out.String())
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "bogus"}, &buf, &buf); err == nil {
		t.Fatal("unknown graph kind accepted")
	}
	for _, spec := range []string{"nope:1", "grid:0", "fpp:6"} {
		if err := run([]string{"-system", spec}, &buf, &buf); err == nil {
			t.Fatalf("-system %s accepted", spec)
		}
	}
	if err := run([]string{"-badflag"}, &buf, &buf); err == nil {
		t.Fatal("undefined flag accepted")
	}
}

// TestRunTrace checks that -trace writes a JSONL span tree covering the
// LP, flow, GAP and rounding phases with nonzero counters, and that
// -stats prints a summary to stderr.
func TestRunTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errOut bytes.Buffer
	err := run([]string{"-graph", "path", "-nodes", "8", "-system", "grid:2",
		"-audit=false", "-trace", traceFile, "-stats"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	counters := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var rec struct {
			Type  string   `json:"type"`
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %d invalid: %v\n%s", i+1, err, line)
		}
		switch rec.Type {
		case "span":
			spans[rec.Name] = true
		case "counter":
			if rec.Value != nil {
				counters[rec.Name] = *rec.Value
			}
		}
	}
	for _, want := range []string{
		"placement.qpp", "placement.ssqpp", "ssqpp.lp", "lp.solve",
		"lp.phase1", "lp.phase2", "ssqpp.round", "gap.round",
		"flow.assign", "flow.mincostflow",
	} {
		if !spans[want] {
			t.Errorf("trace missing span %q", want)
		}
	}
	for _, want := range []string{"lp.pivots", "lp.phase1_iters", "flow.augmentations", "placement.qpp_sources"} {
		if counters[want] <= 0 {
			t.Errorf("counter %s = %v, want > 0", want, counters[want])
		}
	}
	if s := errOut.String(); !strings.Contains(s, "telemetry summary") {
		t.Errorf("-stats wrote no summary:\n%s", s)
	}
}

// TestRunProfiles checks the pprof flags produce non-empty profile files.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run([]string{"-graph", "path", "-nodes", "6", "-system", "grid:2",
		"-audit=false", "-cpuprofile", cpu, "-memprofile", mem}, &buf, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", f)
		}
	}
}

func TestRunSaveAndLoadSpec(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "ins.json")
	var buf bytes.Buffer
	if err := run([]string{"-graph", "path", "-nodes", "6", "-system", "grid:2", "-savespec", spec}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote instance spec") {
		t.Fatalf("savespec output: %s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-loadspec", spec, "-audit=false"}, &buf, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "grid-2x2") {
		t.Fatalf("loadspec output missing system name:\n%s", buf.String())
	}
}

// TestRunMetricsAddr serves live metrics during a solve-and-simulate run
// and scrapes the endpoint while -metrics-hold keeps it up.
func TestRunMetricsAddr(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-graph", "path", "-nodes", "8", "-system", "grid:2", "-sim", "50",
			"-metrics-addr", "127.0.0.1:0", "-metrics-hold", "3s"}, &out, &errOut)
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
	if resp.StatusCode != 200 || !strings.Contains(string(body), "qpp_") {
		t.Fatalf("scrape status %d body %q", resp.StatusCode, body)
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
