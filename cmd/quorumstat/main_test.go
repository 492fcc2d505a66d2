package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	qp "quorumplace"
)

func TestParseProbs(t *testing.T) {
	ps, err := parseProbs("0.1, 0.5,0.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 || ps[0] != 0.1 || ps[2] != 0.9 {
		t.Fatalf("parseProbs = %v", ps)
	}
	for _, bad := range []string{"", "x", "-0.1", "1.5", ","} {
		if _, err := parseProbs(bad); err == nil {
			t.Errorf("parseProbs(%q) accepted", bad)
		}
	}
}

// TestParseSystem checks the -system specs quorumstat accepts and rejects.
func TestParseSystem(t *testing.T) {
	ok := []string{"grid:2", "majority:5:3", "fpp:2", "wheel:5", "recmajority:1", "cwall:2,2"}
	for _, spec := range ok {
		if _, err := qp.ParseSystem(spec); err != nil {
			t.Errorf("ParseSystem(%q) = %v", spec, err)
		}
	}
	bad := []string{"bogus:1", "grid:x", "majority:5", "cwall:x"}
	for _, spec := range bad {
		if _, err := qp.ParseSystem(spec); err == nil {
			t.Errorf("ParseSystem(%q) accepted", spec)
		}
	}
}

func TestDefaultSystemsVerify(t *testing.T) {
	for _, s := range defaultSystems() {
		if err := s.VerifyIntersection(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestRunTable(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-system", "grid:2", "-p", "0.1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"system", "opt load", "F(0.1)", "grid-2x2"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "sim p95") {
		t.Error("latency columns printed without -sim")
	}
}

// TestRunSim checks the -sim latency columns: present, ordered
// (p50 ≤ p95 ≤ p99), and nonzero for a non-trivial system.
func TestRunSim(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-system", "grid:2", "-p", "0.1", "-sim", "200", "-nodes", "12", "-seed", "3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"sim mean", "sim p50", "sim p95", "sim p99"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	sim, _, err := simulateSystem(qp.Grid(2), 12, 200, 0, 0, 3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Mean <= 0 || sim.P50 <= 0 {
		t.Errorf("degenerate latency digest: %+v", sim)
	}
	if sim.P50 > sim.P95 || sim.P95 > sim.P99 {
		t.Errorf("percentiles out of order: %+v", sim)
	}
	// The digest the table prints is the same one simulateSystem returns.
	cell := fmt.Sprintf("%8.4f  %8.4f  %8.4f  %8.4f", sim.Mean, sim.P50, sim.P95, sim.P99)
	if !strings.Contains(got, cell) {
		t.Errorf("table row missing digest %q:\n%s", cell, got)
	}
}

func TestRunBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-p", "nope"}, &buf, &buf); err == nil {
		t.Fatal("bad probabilities accepted")
	}
	for _, spec := range []string{"bogus:1", "grid", "majority:5:2"} {
		if err := run([]string{"-system", spec}, &buf, &buf); err == nil {
			t.Fatalf("-system %s accepted", spec)
		}
	}
	if err := run([]string{"-sim", "10", "-nodes", "1"}, &buf, &buf); err == nil {
		t.Fatal("tiny -nodes accepted with -sim")
	}
	if err := run([]string{"-clients", "100"}, &buf, &buf); err == nil {
		t.Fatal("-clients without -sim accepted")
	}
	if err := run([]string{"-landmarks", "4"}, &buf, &buf); err == nil {
		t.Fatal("-landmarks without -sim accepted")
	}
}

// TestRunDependentFlagsRejected is the regression test for the silent-flag
// bug: flags that only act alongside another flag used to be ignored when
// that flag was absent, hiding typos. They must be rejected instead — even
// when the given value happens to equal the default.
func TestRunDependentFlagsRejected(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		name string
		args []string
	}{
		{"-metrics-hold without -metrics-addr", []string{"-metrics-hold", "5s"}},
		{"-metrics-hold at default without -metrics-addr", []string{"-metrics-hold", "0s"}},
		{"-trace-sample without -trace-out", []string{"-sim", "10", "-trace-sample", "fine"}},
		{"-timeseries without -trace-out", []string{"-sim", "10", "-timeseries", "5"}},
		{"-slo-window without -slo", []string{"-sim", "10", "-slo-window", "30"}},
		{"-slo-window at default without -slo", []string{"-sim", "10", "-slo-window", "25"}},
		{"-drift-threshold without -heat", []string{"-sim", "10", "-drift-threshold", "0.5"}},
	}
	for _, tc := range cases {
		buf.Reset()
		if err := run(tc.args, &buf, &buf); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// Sanity: the same flags in their full combinations still work
	// (covered functionally elsewhere; here just the validation gate).
	if err := run([]string{"-system", "grid:2", "-p", "0.1"}, &buf, &buf); err != nil {
		t.Fatalf("plain run broken by flag validation: %v", err)
	}
}

// TestRunClientsAndLandmarks drives the demand-aggregation and sparse-metric
// reporting paths: an aggregated client population changes the simulated
// latency digest (the placement objective and access mix are reweighted),
// and -landmarks prints a verified stretch line.
func TestRunClientsAndLandmarks(t *testing.T) {
	base := []string{"-system", "grid:2", "-p", "0.1", "-sim", "150", "-nodes", "14", "-seed", "5"}

	var uniform, weighted, errOut bytes.Buffer
	if err := run(base, &uniform, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-clients", "20000", "-landmarks", "4"), &weighted, &errOut); err != nil {
		t.Fatal(err)
	}
	got := weighted.String()
	if !strings.Contains(got, "landmark metric: k=4") || !strings.Contains(got, "max sampled stretch") {
		t.Errorf("landmark stretch line missing:\n%s", got)
	}
	if uniform.String() == strings.Join(strings.SplitAfter(got, "\n")[:2], "") {
		t.Error("aggregated clients left the latency digest bitwise unchanged")
	}

	// The aggregated population must actually reach the sim: the digest
	// differs from the uniform-demand run of the same seed.
	simU, _, err := simulateSystem(qp.Grid(2), 14, 150, 0, 0, 5, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	simW, _, err := simulateSystem(qp.Grid(2), 14, 150, 20000, 0, 5, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if simU.Mean == simW.Mean && simU.P99 == simW.P99 {
		t.Errorf("client weighting had no effect: uniform %+v weighted %+v", simU, simW)
	}
}

// TestRunSLO drives the windowed SLO budget check end to end: loose targets
// pass and print the window table, impossibly tight targets exit nonzero
// with per-window violations on stderr.
func TestRunSLO(t *testing.T) {
	base := []string{"-system", "grid:2", "-p", "0.1", "-sim", "100", "-nodes", "12", "-seed", "3", "-slo-window", "50"}

	var out, errOut bytes.Buffer
	if err := run(append(base, "-slo", "p99=1e9,skew=1e9"), &out, &errOut); err != nil {
		t.Fatalf("loose SLO failed: %v\n%s", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"run", "window", "p99.9", "skew", "all SLO targets held"} {
		if !strings.Contains(got, want) {
			t.Errorf("SLO table missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	errOut.Reset()
	err := run(append(base, "-slo", "p50=1e-12"), &out, &errOut)
	if err == nil {
		t.Fatal("impossible SLO passed")
	}
	if !strings.Contains(err.Error(), "SLO window violations") {
		t.Fatalf("unexpected error %v", err)
	}
	if !strings.Contains(errOut.String(), "p50_delay") {
		t.Errorf("violations not reported on stderr:\n%s", errOut.String())
	}
}

func TestRunSLOBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-slo", "p99=4"}, &buf, &buf); err == nil {
		t.Fatal("-slo without -sim accepted")
	}
	if err := run([]string{"-sim", "10", "-slo", "p99=4", "-slo-window", "0"}, &buf, &buf); err == nil {
		t.Fatal("zero -slo-window accepted")
	}
	if err := run([]string{"-sim", "10", "-slo", "bogus=1"}, &buf, &buf); err == nil {
		t.Fatal("unknown SLO key accepted")
	}
}

// TestRunHeat drives the -heat report end to end: the workload-heat section
// prints drift, heavy hitters and the attribution block, a loose threshold
// passes, and a threshold below the apportionment noise of a weighted run
// exits nonzero with drift alerts on stderr.
func TestRunHeat(t *testing.T) {
	base := []string{"-system", "grid:2", "-p", "0.1", "-sim", "10", "-nodes", "12", "-seed", "5",
		"-clients", "1000", "-heat"}

	var out, errOut bytes.Buffer
	if err := run(append(base, "-drift-threshold", "0.9"), &out, &errOut); err != nil {
		t.Fatalf("loose drift threshold failed: %v\n%s", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"workload heat", "drift TV", "hot client", "hot node",
		"predicted (plan demand)", "dominant cause",
		"all systems within drift threshold",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("heat report missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	errOut.Reset()
	err := run(append(base, "-drift-threshold", "1e-9"), &out, &errOut)
	if err == nil {
		t.Fatal("sub-noise drift threshold passed")
	}
	if !strings.Contains(err.Error(), "drift threshold breaches") {
		t.Fatalf("unexpected error %v", err)
	}
	if !strings.Contains(errOut.String(), "drift alert") {
		t.Errorf("alerts not reported on stderr:\n%s", errOut.String())
	}
}

func TestRunHeatBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-heat"}, &buf, &buf); err == nil {
		t.Fatal("-heat without -sim accepted")
	}
	if err := run([]string{"-sim", "10", "-drift-threshold", "0.5"}, &buf, &buf); err == nil {
		t.Fatal("-drift-threshold without -heat accepted")
	}
	if err := run([]string{"-sim", "10", "-heat", "-drift-threshold", "2"}, &buf, &buf); err == nil {
		t.Fatal("-drift-threshold > 1 accepted")
	}
}

// TestRunMetricsAddr serves live metrics during a run and scrapes both
// endpoints while the -metrics-hold window keeps the server up.
func TestRunMetricsAddr(t *testing.T) {
	var out, errOut syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-system", "grid:2", "-p", "0.1", "-sim", "50", "-nodes", "10",
			"-metrics-addr", "127.0.0.1:0", "-metrics-hold", "3s"}, &out, &errOut)
	}()
	// The serving line appears on stderr as soon as the listener is up.
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

// TestDefaultTableGolden pins the default table byte for byte: all 14
// default systems at -p 0.05,0.1,0.2,0.3.
func TestDefaultTableGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-p", "0.05,0.1,0.2,0.3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("default table moved:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunLargeSystems: each of these specs used to hang quorumstat for
// over a minute, panic it or run it out of memory. Every run exits 0 with
// the known resilience and domination, the last four with an opt load of
// n/a (their optimal-strategy LP passes its tableau budget), and a cell
// reads n/a only when its analysis returns an error.
func TestRunLargeSystems(t *testing.T) {
	for _, tc := range []struct {
		spec, res, nd string
		noLoad        bool
	}{
		{"grid:6", "5", "no", false}, {"grid:7", "6", "no", false}, {"grid:8", "7", "no", false},
		{"majority:15:8", "7", "yes", false}, {"fpp:5", "5", "no", false}, {"fpp:7", "7", "no", false},
		{"recmajority:3", "7", "yes", false},
		{"star:23000", "n/a", "n/a", true}, {"grid:55", "n/a", "n/a", true},
		{"fpp:61", "n/a", "n/a", true}, {"wheel:5000", "n/a", "n/a", true},
	} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-system", tc.spec, "-p", "0.1"}, &out, &errOut); err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		// system, n, quorums, c(S), opt load, load LB, resilience, ND, F(0.1)
		row := strings.Fields(lines[len(lines)-1])
		if len(row) != 9 || row[6] != tc.res || row[7] != tc.nd || (row[4] == "n/a") != tc.noLoad {
			t.Fatalf("%s: row %q, want resilience %s, ND %s and opt load n/a %v", tc.spec, row, tc.res, tc.nd, tc.noLoad)
		}
		if row[8] == "n/a" || tc.noLoad {
			s, err := qp.ParseSystem(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := qp.FailureProbability(s, 0.1); row[8] == "n/a" && err == nil {
				t.Errorf("%s: F(0.1) prints n/a but FailureProbability returns no error", tc.spec)
			}
			if _, _, err := qp.OptimalStrategy(s); tc.noLoad && err == nil {
				t.Errorf("%s: opt load prints n/a but OptimalStrategy returns no error", tc.spec)
			}
		}
	}
}
