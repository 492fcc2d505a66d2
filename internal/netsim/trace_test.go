package netsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTraceProbesMatchLatency pins the acceptance invariant: in parallel
// mode the max probe completion equals the access's recorded latency; in
// sequential mode the probes chain back-to-back and the last completion
// does.
func TestTraceProbesMatchLatency(t *testing.T) {
	ins, p := buildInstance(t)
	for _, mode := range []Mode{Parallel, Sequential} {
		rec := NewRecorder(0, 1, 0)
		stats, err := Run(Config{
			Instance: ins, Placement: p, Mode: mode,
			AccessesPerClient: 40, Seed: 3, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		traces := rec.Traces()
		if len(traces) != stats.Accesses {
			t.Fatalf("%v: traced %d of %d accesses at sample=1", mode, len(traces), stats.Accesses)
		}
		for _, tr := range traces {
			var maxComplete float64
			stragglers := 0
			for _, pr := range tr.Probes {
				if pr.Complete > maxComplete {
					maxComplete = pr.Complete
				}
				if pr.Straggler {
					stragglers++
				}
				if pr.Dispatch < tr.Start || pr.Complete > tr.End+1e-12 {
					t.Fatalf("%v: probe [%v,%v] outside access [%v,%v]",
						mode, pr.Dispatch, pr.Complete, tr.Start, tr.End)
				}
			}
			if math.Abs(maxComplete-tr.Start-tr.Latency) > 1e-12 {
				t.Fatalf("%v: max probe completion %v != start %v + latency %v",
					mode, maxComplete, tr.Start, tr.Latency)
			}
			if math.Abs(tr.End-tr.Start-tr.Latency) > 1e-12 {
				t.Fatalf("%v: end-start %v != latency %v", mode, tr.End-tr.Start, tr.Latency)
			}
			if stragglers != 1 {
				t.Fatalf("%v: %d stragglers, want exactly 1", mode, stragglers)
			}
		}
	}
}

// TestTraceSampling: 1-in-k sampling records exactly the (client, access)
// pairs the deterministic hash selects at the run's seed — no tolerance —
// and the same pairs at every worker count.
func TestTraceSampling(t *testing.T) {
	ins, p := buildInstance(t)
	const apc, every, seed = 50, 10, 3
	type key struct{ client, access int }
	want := map[key]bool{}
	for v := 0; v < ins.M.N(); v++ {
		for a := 0; a < apc; a++ {
			if shouldTraceDet(traceSeedFor(seed), v, a, every) {
				want[key{v, a}] = true
			}
		}
	}
	if len(want) == 0 || len(want) == ins.M.N()*apc {
		t.Fatalf("sampler selected %d of %d accesses; test exercises nothing", len(want), ins.M.N()*apc)
	}
	for _, workers := range []int{0, 1, 4} {
		rec := NewRecorder(0, every, 0)
		if _, err := Run(Config{
			Instance: ins, Placement: p, Mode: Parallel,
			AccessesPerClient: apc, Seed: seed, Recorder: rec, Workers: workers,
		}); err != nil {
			t.Fatal(err)
		}
		if rec.Recorded() != int64(len(want)) {
			t.Fatalf("workers=%d: sample=%d recorded %d accesses, the hash selects %d",
				workers, every, rec.Recorded(), len(want))
		}
		// Each client's traces appear in access order, so the k-th trace of
		// a client is its k-th selected access.
		next := map[int]int{}
		for _, tr := range rec.Traces() {
			a := next[tr.Client]
			for !want[key{tr.Client, a}] {
				a++
				if a >= apc {
					t.Fatalf("workers=%d: client %d traced more accesses than selected", workers, tr.Client)
				}
			}
			next[tr.Client] = a + 1
		}
	}
}

// TestRecorderRetainsBoundedHeap: a saturated ring keeps O(capacity)
// memory. Every evicted trace's probes must become garbage; a recorder
// that parks them anywhere grows with the number of accesses traced.
func TestRecorderRetainsBoundedHeap(t *testing.T) {
	ins, p := buildInstance(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := NewRecorder(16, 1, 0)
	stats, err := Run(Config{
		Instance: ins, Placement: p, Mode: Parallel,
		AccessesPerClient: 2000, Seed: 5, Recorder: rec, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() != 18000 || stats.Accesses != 18000 {
		t.Fatalf("traced %d of %d accesses, want 18000", rec.Recorded(), stats.Accesses)
	}
	stats = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The 16 retained traces with their 3-probe arrays take a few KiB; the
	// 17,984 evicted ones would take megabytes.
	const bound = 256 << 10
	if after.HeapAlloc > before.HeapAlloc && after.HeapAlloc-before.HeapAlloc > bound {
		t.Fatalf("recorder of capacity 16 retains %d bytes after 18000 traced accesses, want <= %d",
			after.HeapAlloc-before.HeapAlloc, bound)
	}
	runtime.KeepAlive(rec)
}

// TestTraceRingBounded: the ring keeps the newest traces, reports drops,
// and returns them oldest-first.
func TestTraceRingBounded(t *testing.T) {
	rec := NewRecorder(8, 1, 0)
	for i := 0; i < 20; i++ {
		rec.add(AccessTrace{Client: i})
	}
	if rec.Recorded() != 20 {
		t.Fatalf("Recorded = %d, want 20", rec.Recorded())
	}
	if rec.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", rec.Dropped())
	}
	traces := rec.Traces()
	if len(traces) != 8 {
		t.Fatalf("retained %d traces, want 8", len(traces))
	}
	for i, tr := range traces {
		if tr.Client != 12+i || tr.ID != int64(12+i) {
			t.Fatalf("trace %d = client %d id %d, want client/id %d (oldest-first)", i, tr.Client, tr.ID, 12+i)
		}
	}
}

// TestRecorderConcurrent hammers one recorder from parallel simulation runs
// while snapshotting concurrently; run with -race.
func TestRecorderConcurrent(t *testing.T) {
	ins, p := buildInstance(t)
	rec := NewRecorder(256, 2, 0.5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, err := Run(Config{
				Instance: ins, Placement: p, Mode: Parallel,
				AccessesPerClient: 30, InterAccessTime: 1, Seed: seed, Recorder: rec,
			}); err != nil {
				t.Error(err)
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			rec.Traces()
			rec.Series()
			rec.Breakdown()
			rec.Recorded()
			rec.Dropped()
		}
	}()
	wg.Wait()
	<-done
	if rec.Recorded() == 0 {
		t.Fatal("no traces recorded")
	}
	runs := map[int]bool{}
	for _, tr := range rec.Traces() {
		runs[tr.Run] = true
	}
	if len(runs) < 2 {
		t.Fatalf("traces from %d runs retained, want several", len(runs))
	}
}

// TestTimeSeriesSamples: interval sampling emits monotonic virtual-time
// samples with sane gauges.
func TestTimeSeriesSamples(t *testing.T) {
	ins, p := buildInstance(t)
	rec := NewRecorder(0, 1, 0.25)
	stats, err := Run(Config{
		Instance: ins, Placement: p, Mode: Parallel,
		AccessesPerClient: 100, InterAccessTime: 0.5, Seed: 7, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	series := rec.Series()
	if len(series) == 0 {
		t.Fatal("no time-series samples")
	}
	prev := 0.0
	for i, s := range series {
		if s.At <= prev && i > 0 {
			t.Fatalf("sample %d At %v not increasing (prev %v)", i, s.At, prev)
		}
		prev = s.At
		if s.InFlight < 0 || s.Accesses < 0 || s.Accesses > stats.Accesses {
			t.Fatalf("sample %d has bad gauges: %+v", i, s)
		}
		if len(s.NodeHits) != ins.M.N() {
			t.Fatalf("sample %d NodeHits len %d, want %d", i, len(s.NodeHits), ins.M.N())
		}
	}
	last := series[len(series)-1]
	if last.Accesses == 0 {
		t.Fatal("cumulative access gauge never advanced")
	}
}

// TestQueueingTraceProbes: queueing probes decompose exactly into
// propagation + queue wait + service, and the last response is the access
// latency.
func TestQueueingTraceProbes(t *testing.T) {
	ins, p := buildInstance(t)
	rec := NewRecorder(0, 1, 1)
	stats, err := RunQueueing(QueueConfig{
		Instance: ins, Placement: p,
		ArrivalRate: 0.2, ServiceMean: 0.5,
		AccessesPerClient: 50, Seed: 5, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) != stats.Accesses {
		t.Fatalf("traced %d of %d accesses", len(traces), stats.Accesses)
	}
	sawWait := false
	for _, tr := range traces {
		var last float64
		for _, pr := range tr.Probes {
			want := pr.Dispatch + pr.NetDelay + pr.QueueWait + pr.Service
			if math.Abs(pr.Complete-want) > 1e-9 {
				t.Fatalf("probe complete %v != dispatch+net+wait+service %v", pr.Complete, want)
			}
			if pr.QueueWait > 0 {
				sawWait = true
			}
			if pr.Complete > last {
				last = pr.Complete
			}
		}
		if math.Abs(last-tr.End) > 1e-9 || math.Abs(tr.End-tr.Start-tr.Latency) > 1e-9 {
			t.Fatalf("access end %v latency %v inconsistent with last response %v", tr.End, tr.Latency, last)
		}
	}
	if !sawWait {
		t.Fatal("no probe ever waited in queue under load")
	}
	sawDepth := false
	for _, s := range rec.Series() {
		if len(s.QueueDepth) != ins.M.N() {
			t.Fatalf("queueing sample without per-node depths: %+v", s)
		}
		for _, d := range s.QueueDepth {
			if d > 0 {
				sawDepth = true
			}
		}
	}
	if !sawDepth {
		t.Fatal("queue depth gauge never nonzero under load")
	}
}

// TestFailureTraceAttempts: failure-sim traces record retries, failed
// probes, and aborted accesses.
func TestFailureTraceAttempts(t *testing.T) {
	ins, p := buildInstance(t)
	rec := NewRecorder(0, 1, 0)
	stats, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 0.4, MaxRetries: 2, RetryPenalty: 1,
		AccessesPerClient: 60, Seed: 9, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) != stats.Accesses {
		t.Fatalf("traced %d of %d accesses", len(traces), stats.Accesses)
	}
	var retried, aborted, failedProbes int
	for _, tr := range traces {
		if tr.Attempts > 0 {
			retried++
		}
		if tr.Aborted {
			aborted++
			// Every failed attempt — including the last — charges one
			// RetryPenalty (here 1), so an aborted access pays Attempts of them.
			if tr.Latency != float64(tr.Attempts)*1 {
				t.Fatalf("aborted access latency %v, want %v penalties", tr.Latency, float64(tr.Attempts))
			}
		}
		for _, pr := range tr.Probes {
			if pr.Failed {
				failedProbes++
				if pr.Straggler {
					t.Fatal("failed probe marked straggler")
				}
			}
		}
	}
	if retried == 0 || failedProbes == 0 {
		t.Fatalf("no retries (%d) or failed probes (%d) at p=0.4", retried, failedProbes)
	}
	if aborted != stats.FailedOutright {
		t.Fatalf("aborted traces %d != FailedOutright %d", aborted, stats.FailedOutright)
	}
}

// TestBreakdown: the plain-text table carries the per-node and per-quorum
// sections and straggler percentages.
func TestBreakdown(t *testing.T) {
	ins, p := buildInstance(t)
	rec := NewRecorder(0, 1, 0)
	if _, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: 50, Seed: 3, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	got := rec.Breakdown()
	for _, want := range []string{"per-node probe latency", "per-quorum access latency", "straggler", "p99"} {
		if !strings.Contains(got, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, got)
		}
	}
}

// goldenRun is the seeded 2-client configuration whose exported Chrome
// trace is pinned byte-for-byte by testdata/chrometrace_golden.json.
func goldenRun(t *testing.T) *Recorder {
	t.Helper()
	g := graph.Path(2)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Majority(2, 2)
	ins, err := placement.NewInstance(m, []float64{1, 1}, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewPlacement([]int{0, 1})
	rec := NewRecorder(0, 1, 0.4)
	if _, err := Run(Config{
		Instance: ins, Placement: p, Mode: Parallel,
		AccessesPerClient: 3, InterAccessTime: 0.3, Seed: 42, Recorder: rec,
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestChromeTraceGolden pins the exported trace-event JSON of a seeded
// 2-client run: it must be valid JSON in the Chrome trace-event shape and
// byte-identical to the golden file (regenerate with go test -run
// ChromeTraceGolden -update).
func TestChromeTraceGolden(t *testing.T) {
	rec := goldenRun(t)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Structural validity: the document parses and every event has a phase;
	// X events have nonnegative durations.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("malformed document: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	var spans, counters, metas int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 {
				t.Fatalf("negative duration on %q", e.Name)
			}
		case "C":
			counters++
		case "M":
			metas++
		default:
			t.Fatalf("unexpected phase %q on %q", e.Ph, e.Name)
		}
	}
	if spans == 0 || counters == 0 || metas == 0 {
		t.Fatalf("want spans, counters and metadata; got %d/%d/%d", spans, counters, metas)
	}

	golden := filepath.Join("testdata", "chrometrace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exported trace differs from golden (len %d vs %d); regenerate with -update if intended",
			buf.Len(), len(want))
	}
}

// TestPercentileCaching: repeated Percentile calls reuse the cached sorted
// slice without disturbing the sample order Latencies reports, and the
// cache refreshes when samples are appended.
func TestPercentileCaching(t *testing.T) {
	s := &Stats{latencies: []float64{4, 1, 3, 2}}
	if got := s.Percentile(0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	// Second call hits the cache and must agree.
	if got := s.Percentile(0.5); got != 2.5 {
		t.Fatalf("cached median = %v, want 2.5", got)
	}
	if got := s.Latencies(); got[0] != 4 {
		t.Fatalf("Latencies reordered by Percentile: %v", got)
	}
	// Appending samples invalidates the cache.
	s.latencies = append(s.latencies, 0)
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("min after append = %v, want 0", got)
	}
	if got := s.Percentile(1); got != 4 {
		t.Fatalf("max after append = %v, want 4", got)
	}
}

// TestChromeTracePresetGolden pins the trace output of the "fine" sampling
// preset under the sharded engine: a seeded Workers=2 run sampled at
// ParseTraceSample("fine") must export byte-identical Chrome trace JSON to
// the golden file, and the bytes must not move with the worker count — the
// deterministic hash-based sampler ties traces to (client, access), not to
// the shard that simulated them. Regenerate with -update.
func TestChromeTracePresetGolden(t *testing.T) {
	every, err := ParseTraceSample("fine")
	if err != nil {
		t.Fatal(err)
	}
	if every != TraceSampleFine {
		t.Fatalf("fine preset = %d, want %d", every, TraceSampleFine)
	}
	ins, p := buildInstance(t)
	export := func(workers int) []byte {
		rec := NewRecorder(0, every, 0)
		if _, err := Run(Config{
			Instance: ins, Placement: p, Mode: Parallel,
			AccessesPerClient: 64, InterAccessTime: 0.3, Seed: 42,
			Recorder: rec, Workers: workers,
		}); err != nil {
			t.Fatal(err)
		}
		if len(rec.Traces()) == 0 {
			t.Fatalf("workers=%d: fine preset sampled no traces", workers)
		}
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := export(2)
	golden := filepath.Join("testdata", "chrometrace_fine_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fine-preset trace differs from golden (len %d vs %d); regenerate with -update if intended",
			len(got), len(want))
	}
	if other := export(5); !bytes.Equal(got, other) {
		t.Fatalf("fine-preset trace depends on worker count: workers=2 len %d, workers=5 len %d",
			len(got), len(other))
	}
}
