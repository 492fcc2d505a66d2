package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledIsInert(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled after Disable")
	}
	sp := Start("noop")
	if sp != nil {
		t.Fatal("Start returned a span while disabled")
	}
	sp.End() // must not panic on nil
	Count("c", 1)
	Gauge("g", 2)
	GaugeMax("gm", 3)
	Observe("h", 4)
	if Active() != nil {
		t.Fatal("Active non-nil while disabled")
	}
}

func TestEnableDisable(t *testing.T) {
	c := Enable(nil)
	defer Disable()
	if c == nil || Active() != c || !Enabled() {
		t.Fatal("Enable(nil) did not install a fresh collector")
	}
	Count("x", 2)
	if got := Disable(); got != c {
		t.Fatalf("Disable returned %p, want %p", got, c)
	}
	if c.Snapshot().Counter("x") != 2 {
		t.Fatal("counter lost")
	}
}

func TestSpanNesting(t *testing.T) {
	c := NewCollector()
	root := c.Start("root")
	child := c.Start("child")
	grand := c.Start("grand")
	grand.End()
	child.End()
	sib := c.Start("sibling")
	sib.End()
	root.End()

	snap := c.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	paths := snap.SpanPaths()
	want := map[string]bool{
		"root":             true,
		"root/child":       true,
		"root/child/grand": true,
		"root/sibling":     true,
	}
	for _, p := range paths {
		if !want[p] {
			t.Errorf("unexpected span path %q", p)
		}
		delete(want, p)
	}
	for p := range want {
		t.Errorf("missing span path %q", p)
	}
	tree := snap.SpanTree()
	if len(tree[0]) != 1 || tree[0][0].Name != "root" {
		t.Fatalf("root set = %v", tree[0])
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	c := NewCollector()
	sp := c.Start("once")
	sp.End()
	sp.End()
	if n := len(c.Snapshot().Spans); n != 1 {
		t.Fatalf("double End recorded %d spans", n)
	}
}

func TestMetrics(t *testing.T) {
	c := NewCollector()
	c.Count("pivots", 3)
	c.Count("pivots", 4)
	c.Gauge("load", 1.5)
	c.Gauge("load", 0.5)
	c.GaugeMax("depth", 2)
	c.GaugeMax("depth", 7)
	c.GaugeMax("depth", 3)
	for _, v := range []float64{1, 2, 3, 4} {
		c.Observe("lat", v)
	}
	snap := c.Snapshot()
	if snap.Counter("pivots") != 7 {
		t.Fatalf("counter = %d", snap.Counter("pivots"))
	}
	if snap.Gauges["load"] != 0.5 {
		t.Fatalf("gauge = %v", snap.Gauges["load"])
	}
	if snap.Gauges["depth"] != 7 {
		t.Fatalf("watermark gauge = %v", snap.Gauges["depth"])
	}
	h := snap.Histograms["lat"]
	if h.Count != 4 || h.Sum != 10 || h.Min != 1 || h.Max != 4 || h.Mean != 2.5 {
		t.Fatalf("hist = %+v", h)
	}
	// Bucketed quantiles: the ⌈q·n⌉-th order statistic within the LogHist
	// relative error bound. p50 of {1,2,3,4} is the 2nd sample (2), p95 and
	// p999 the 4th (4).
	if math.Abs(h.P50-2) > 2*histQuantileRelErr || math.Abs(h.P95-4) > 4*histQuantileRelErr {
		t.Fatalf("quantiles p50=%v p95=%v", h.P50, h.P95)
	}
	if math.Abs(h.P999-4) > 4*histQuantileRelErr {
		t.Fatalf("p999 = %v", h.P999)
	}
}

// histQuantileRelErr is the documented LogHist quantile error bound: bucket
// midpoints are within half a bucket width, 1/(2·histSubBuckets), of the
// true order statistic.
const histQuantileRelErr = 1.0 / (2 * histSubBuckets)

func TestReset(t *testing.T) {
	c := NewCollector()
	c.Start("s").End()
	c.Count("n", 1)
	c.Observe("h", 1)
	c.Reset()
	snap := c.Snapshot()
	if len(snap.Spans) != 0 || len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("Reset left data: %+v", snap)
	}
}

func TestWriteJSONL(t *testing.T) {
	c := NewCollector()
	outer := c.Start("outer")
	c.Start("inner").End()
	outer.End()
	c.Count("lp.pivots", 11)
	c.Gauge("g", 2.5)
	c.Observe("h", 1)

	var buf bytes.Buffer
	if err := c.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		types[line["type"].(string)]++
	}
	if types["span"] != 2 || types["counter"] != 1 || types["gauge"] != 1 || types["hist"] != 1 {
		t.Fatalf("line type counts = %v", types)
	}
}

// TestReadJSONL round-trips a snapshot through WriteJSONL, then checks
// how repeated metric lines fold and that malformed lines are errors.
func TestReadJSONL(t *testing.T) {
	c := NewCollector()
	outer := c.Start("outer")
	c.Start("inner").End()
	outer.End()
	c.Count("lp.pivots", 11)
	c.Gauge("g", 2.5)
	c.Observe("h", 1)
	want := c.Snapshot()
	var buf bytes.Buffer
	if err := want.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Spans) != len(want.Spans) {
		t.Fatalf("read %d spans, want %d", len(got.Spans), len(want.Spans))
	}
	for i, r := range want.Spans {
		r.Start = r.Start.Truncate(time.Microsecond)
		r.Dur = r.Dur.Truncate(time.Microsecond)
		if got.Spans[i] != r {
			t.Errorf("span %d = %+v, want %+v", i, got.Spans[i], r)
		}
	}
	if p := got.SpanPaths(); p[0] != "outer/inner" || p[1] != "outer" {
		t.Errorf("span paths %v", p)
	}
	if !reflect.DeepEqual(got.Counters, want.Counters) || !reflect.DeepEqual(got.Gauges, want.Gauges) ||
		!reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Errorf("metrics = %v %v %v, want %v %v %v",
			got.Counters, got.Gauges, got.Histograms, want.Counters, want.Gauges, want.Histograms)
	}

	got, err = ReadJSONL(strings.NewReader(`{"type":"counter","name":"c","value":2}

{"type":"counter","name":"c","value":3}
{"type":"gauge","name":"g","value":1}
{"type":"gauge","name":"g","value":4}
`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["c"] != 5 || got.Gauges["g"] != 4 {
		t.Errorf("repeated lines folded to counter %d gauge %v, want 5 and 4", got.Counters["c"], got.Gauges["g"])
	}
	for _, bad := range []string{"not json\n", `{"type":"bogus"}` + "\n", `{"type":"counter","name":"c"}` + "\n"} {
		if _, err := ReadJSONL(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadJSONL accepted %q", bad)
		}
	}
}

func TestJSONLWriterStreams(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	c := NewCollector()
	c.AddSink(jw)
	c.Start("a").End()
	c.Start("b").End()
	if jw.Err() != nil {
		t.Fatal(jw.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("streamed %d lines, want 2", len(lines))
	}
	var first struct {
		Type string `json:"type"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != "span" || first.Name != "a" {
		t.Fatalf("first line = %+v", first)
	}
}

func TestSummary(t *testing.T) {
	c := NewCollector()
	root := c.Start("solve")
	c.Start("lp").End()
	c.Start("lp").End()
	root.End()
	c.Count("lp.pivots", 42)
	c.GaugeMax("netsim.max_queue_depth", 9)
	c.Observe("lat", 3)
	s := c.Snapshot().Summary()
	for _, want := range []string{"solve", "lp", "×2", "lp.pivots", "42", "netsim.max_queue_depth", "lat"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	c := Enable(NewCollector())
	defer Disable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := Start("worker")
				Count("ops", 1)
				GaugeMax("peak", float64(i))
				Observe("v", float64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Counter("ops") != 1600 {
		t.Fatalf("ops = %d", snap.Counter("ops"))
	}
	if len(snap.Spans) != 1600 {
		t.Fatalf("spans = %d", len(snap.Spans))
	}
	if snap.Gauges["peak"] != 199 {
		t.Fatalf("peak = %v", snap.Gauges["peak"])
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if q := NewLogHist().Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	one := NewLogHist()
	one.Observe(7)
	for _, q := range []float64{0, 0.5, 1} {
		if got := one.Quantile(q); got != 7 {
			t.Fatalf("Quantile(%v) of a single sample = %v, want 7", q, got)
		}
	}
}

func TestSpanRecordTimes(t *testing.T) {
	c := NewCollector()
	sp := c.Start("timed")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	rec := c.Snapshot().Spans[0]
	if rec.Dur < time.Millisecond {
		t.Fatalf("duration %v too short", rec.Dur)
	}
	if rec.Start < 0 {
		t.Fatalf("negative start offset %v", rec.Start)
	}
}

// BenchmarkDisabledSpan measures the cost of the instrumentation guard with
// telemetry off: one atomic load and a nil return, plus a nil-receiver End.
func BenchmarkDisabledSpan(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Start("hot")
		sp.End()
	}
}

// BenchmarkDisabledCount measures the disabled counter path.
func BenchmarkDisabledCount(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count("hot", 1)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	Enable(NewCollector())
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Start("hot")
		sp.End()
	}
}

func BenchmarkEnabledCount(b *testing.B) {
	Enable(NewCollector())
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count("hot", 1)
	}
}

// TestCountRegistrationRace hammers many counter names from many goroutines
// so first-use registrations (the clone-and-swap of the counter map) race
// with lock-free bumps of already-registered cells; every total must still
// be exact.
func TestCountRegistrationRace(t *testing.T) {
	c := Enable(NewCollector())
	defer Disable()
	const goroutines, perName = 8, 500
	names := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perName; i++ {
				// Rotate the starting name per goroutine so registrations
				// of different names race each other, not just the bumps.
				for k := range names {
					Count(names[(g+k)%len(names)], 1)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := c.Snapshot()
	for _, n := range names {
		if got := snap.Counter(n); got != goroutines*perName {
			t.Fatalf("counter %q = %d, want %d", n, got, goroutines*perName)
		}
	}
}

// TestCountAfterReset checks that cells registered before a Reset do not
// leak stale totals into counts recorded after it.
func TestCountAfterReset(t *testing.T) {
	c := Enable(NewCollector())
	defer Disable()
	Count("x", 5)
	c.Reset()
	Count("x", 2)
	if got := c.Snapshot().Counter("x"); got != 2 {
		t.Fatalf("counter after reset = %d, want 2", got)
	}
}

// BenchmarkEnabledCountParallel measures cross-goroutine contention on one
// hot counter with telemetry on: the lock-free cell keeps workers from
// serializing on the collector mutex.
func BenchmarkEnabledCountParallel(b *testing.B) {
	Enable(NewCollector())
	defer Disable()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			Count("hot", 1)
		}
	})
}
