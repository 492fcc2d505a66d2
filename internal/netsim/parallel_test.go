package netsim

import (
	"math"
	"reflect"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// Differential tests for the sharded engine (engine.go): the output of
// every Workers value must be bitwise identical, with telemetry on and
// off, trace for trace and sample for sample. Workers = 1 is the
// sequential reference and Workers = 0 must run exactly like it, so
// parallel == sequential within the contract documented on Config.Workers.

// otherWorkers are the worker counts compared against the Workers = 1
// reference.
var otherWorkers = []int{0, 2, 3, 4, 5, 6, 7, 8}

// shardedArtifacts is everything a sharded run externalizes: the stats
// struct, and — when telemetry is on — the recorded traces, time-series
// samples, SLO windows, the heat sketch, and the obs counters.
type shardedArtifacts struct {
	stats    interface{}
	traces   []AccessTrace
	series   []TSample
	slo      []SLOWindow
	ht       *heat.Sketch
	counters map[string]int64
}

// diffCounters are the obs counters that must agree bit for bit across
// worker counts. netsim.pdes_rounds is intentionally absent: the number of
// conservative windows depends on the partition.
var diffCounters = []string{
	"netsim.events", "netsim.messages", "netsim.retries", "netsim.traced_accesses",
}

// runWithTelemetry runs body with a fresh recorder (tracing every 3rd
// access, time series, SLO windows), heat sketch and obs collector, and
// collects the artifacts.
func runWithTelemetry(t *testing.T, body func(rec *Recorder, ht *heat.Sketch) interface{}) shardedArtifacts {
	t.Helper()
	rec := NewRecorder(1<<16, 3, 0.5)
	rec.EnableSLO(2.0)
	ht := heat.New(heat.Options{EpochLen: 1, HalfLife: 4})
	prev := obs.Active()
	col := obs.Enable(obs.NewCollector())
	defer restoreTelemetry(prev)
	stats := body(rec, ht)
	snap := col.Snapshot()
	counters := make(map[string]int64)
	for _, k := range diffCounters {
		counters[k] = snap.Counters[k]
	}
	return shardedArtifacts{
		stats:    stats,
		traces:   rec.Traces(),
		series:   rec.Series(),
		slo:      rec.SLOWindows(),
		ht:       ht,
		counters: counters,
	}
}

func checkInvariant(t *testing.T, name string, ref, got shardedArtifacts, workers int) {
	t.Helper()
	if !reflect.DeepEqual(ref.stats, got.stats) {
		t.Errorf("%s: workers=%d stats differ from workers=1:\n%+v\nvs\n%+v", name, workers, got.stats, ref.stats)
	}
	if !reflect.DeepEqual(ref.traces, got.traces) {
		t.Errorf("%s: workers=%d traces differ (%d vs %d)", name, workers, len(got.traces), len(ref.traces))
	}
	if !reflect.DeepEqual(ref.series, got.series) {
		t.Errorf("%s: workers=%d time series differ (%d vs %d samples)", name, workers, len(got.series), len(ref.series))
	}
	if !reflect.DeepEqual(ref.slo, got.slo) {
		t.Errorf("%s: workers=%d SLO windows differ", name, workers)
	}
	if ref.ht != nil && !ref.ht.Equal(got.ht) {
		t.Errorf("%s: workers=%d heat sketch differs from workers=1", name, workers)
	}
	if !reflect.DeepEqual(ref.counters, got.counters) {
		t.Errorf("%s: workers=%d counters %v, want %v", name, workers, got.counters, ref.counters)
	}
}

func TestShardedRunWorkerInvariance(t *testing.T) {
	ins, p := buildInstance(t)
	for _, mode := range []Mode{Parallel, Sequential} {
		run := func(workers int, rec *Recorder, ht *heat.Sketch) interface{} {
			stats, err := Run(Config{
				Instance: ins, Placement: p, Mode: mode,
				AccessesPerClient: 40, InterAccessTime: 0.3, Seed: 11,
				Workers: workers, Recorder: rec, Heat: ht,
			})
			if err != nil {
				t.Fatal(err)
			}
			return stats
		}
		// Telemetry on: traces, series, SLO, heat, counters all pinned.
		ref := runWithTelemetry(t, func(rec *Recorder, ht *heat.Sketch) interface{} { return run(1, rec, ht) })
		for _, w := range otherWorkers {
			got := runWithTelemetry(t, func(rec *Recorder, ht *heat.Sketch) interface{} { return run(w, rec, ht) })
			checkInvariant(t, "run/telemetry", ref, got, w)
		}
		// Telemetry off: the bare stats are still pinned.
		bare := run(1, nil, nil)
		for _, w := range otherWorkers {
			if got := run(w, nil, nil); !reflect.DeepEqual(bare, got) {
				t.Errorf("run/bare: workers=%d stats differ from workers=1", w)
			}
		}
	}
}

func TestShardedFailuresWorkerInvariance(t *testing.T) {
	ins, p := buildInstance(t)
	run := func(workers int, rec *Recorder, ht *heat.Sketch) interface{} {
		stats, err := RunWithFailures(FailureConfig{
			Instance: ins, Placement: p, Mode: Parallel,
			NodeFailureProb: 0.2, MaxRetries: 2, RetryPenalty: 0.5,
			AccessesPerClient: 40, Seed: 13,
			Workers: workers, Recorder: rec, Heat: ht,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	ref := runWithTelemetry(t, func(rec *Recorder, ht *heat.Sketch) interface{} { return run(1, rec, ht) })
	st := ref.stats.(*FailureStats)
	if st.Retries == 0 || st.FailedOutright == 0 {
		t.Fatalf("test config exercises no retries/aborts: %+v", st)
	}
	for _, w := range otherWorkers {
		got := runWithTelemetry(t, func(rec *Recorder, ht *heat.Sketch) interface{} { return run(w, rec, ht) })
		checkInvariant(t, "failures/telemetry", ref, got, w)
	}
	bare := run(1, nil, nil)
	for _, w := range otherWorkers {
		if got := run(w, nil, nil); !reflect.DeepEqual(bare, got) {
			t.Errorf("failures/bare: workers=%d stats differ from workers=1", w)
		}
	}
}

func TestShardedQueueingWorkerInvariance(t *testing.T) {
	ins, p := buildInstance(t)
	run := func(workers int, rec *Recorder, ht *heat.Sketch) interface{} {
		stats, err := RunQueueing(QueueConfig{
			Instance: ins, Placement: p,
			ArrivalRate: 0.8, ServiceMean: 0.2,
			AccessesPerClient: 30, Seed: 17,
			Workers: workers, Recorder: rec, Heat: ht,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	ref := runWithTelemetry(t, func(rec *Recorder, ht *heat.Sketch) interface{} { return run(1, rec, ht) })
	for _, w := range otherWorkers {
		got := runWithTelemetry(t, func(rec *Recorder, ht *heat.Sketch) interface{} { return run(w, rec, ht) })
		checkInvariant(t, "queueing/telemetry", ref, got, w)
	}
	bare := run(1, nil, nil)
	for _, w := range otherWorkers {
		if got := run(w, nil, nil); !reflect.DeepEqual(bare, got) {
			t.Errorf("queueing/bare: workers=%d stats differ from workers=1", w)
		}
	}
}

// TestShardedQueueingWindowedPathEngaged pins that the multi-worker
// queueing runs above actually exercised the conservative-window protocol
// (rather than silently falling back to one shard): the grid metric has
// strictly positive cross-shard distances, so the lookahead is positive and
// at least one barrier round must run.
func TestShardedQueueingWindowedPathEngaged(t *testing.T) {
	ins, p := buildInstance(t)
	prev := obs.Active()
	col := obs.Enable(obs.NewCollector())
	defer restoreTelemetry(prev)
	_, err := RunQueueing(QueueConfig{
		Instance: ins, Placement: p,
		ArrivalRate: 0.8, ServiceMean: 0.2,
		AccessesPerClient: 30, Seed: 17, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds := col.Snapshot().Counters["netsim.pdes_rounds"]; rounds <= 0 {
		t.Fatalf("pdes_rounds = %d, want > 0 (windowed path not engaged)", rounds)
	}
}

// TestShardedQueueingZeroLookaheadFallback: a pseudometric with a
// zero-distance cross-shard client↔host pair admits no safe window; the
// engine must fall back to one shard and still match Workers = 1 exactly.
func TestShardedQueueingZeroLookaheadFallback(t *testing.T) {
	d := [][]float64{
		{0, 1, 0, 1},
		{1, 0, 1, 1},
		{0, 1, 0, 1},
		{1, 1, 1, 0},
	}
	m, err := graph.NewMetricFromMatrix(d)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Grid(2)
	ins, err := placement.NewInstance(m, []float64{1, 1, 1, 1}, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewPlacement([]int{0, 1, 2, 3})
	run := func(workers int) *QueueStats {
		stats, err := RunQueueing(QueueConfig{
			Instance: ins, Placement: p,
			ArrivalRate: 1, ServiceMean: 0.3,
			AccessesPerClient: 25, Seed: 23, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	if L := queueLookahead(&QueueConfig{Instance: ins, Placement: p}, 4, 2); L != 0 {
		t.Fatalf("lookahead = %v, want 0 (test topology broken)", L)
	}
	ref := run(1)
	for _, w := range []int{0, 2, 3, 4} {
		if got := run(w); !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d differs from workers=1 under zero lookahead", w)
		}
	}
}

// TestShardOfEntityInvertsPartition: shardOfEntity must be the exact
// inverse of the block bounds every engine uses (lo, hi = s·n/w,
// (s+1)·n/w) — the queueing engine routes cross-shard events with it, so
// an off-by-one here is an out-of-bounds FIFO index.
func TestShardOfEntityInvertsPartition(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for w := 1; w <= n; w++ {
			for s := 0; s < w; s++ {
				for v := s * n / w; v < (s+1)*n/w; v++ {
					if got := shardOfEntity(v, n, w); got != s {
						t.Fatalf("shardOfEntity(%d, n=%d, w=%d) = %d, want %d", v, n, w, got, s)
					}
				}
			}
		}
	}
}

func TestShardedWorkersValidation(t *testing.T) {
	ins, p := buildInstance(t)
	if _, err := Run(Config{Instance: ins, Placement: p, AccessesPerClient: 1, Workers: -1}); err == nil {
		t.Error("Run accepted Workers = -1")
	}
	if _, err := RunWithFailures(FailureConfig{Instance: ins, Placement: p, AccessesPerClient: 1, Workers: -1}); err == nil {
		t.Error("RunWithFailures accepted Workers = -1")
	}
	if _, err := RunQueueing(QueueConfig{Instance: ins, Placement: p, ArrivalRate: 1, AccessesPerClient: 1, Workers: -1}); err == nil {
		t.Error("RunQueueing accepted Workers = -1")
	}
	// Workers beyond the client count clamp rather than fail.
	stats, err := Run(Config{Instance: ins, Placement: p, AccessesPerClient: 2, Seed: 1, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(Config{Instance: ins, Placement: p, AccessesPerClient: 2, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, stats) {
		t.Error("clamped worker count changed the output")
	}
}

// TestShardedHeatMergeMatchesSequential pins the satellite contract
// directly: merging per-worker heat shards reproduces the workers=1 sketch
// bit for bit (heat cells are integer counts, so Merge is lossless).
func TestShardedHeatMergeMatchesSequential(t *testing.T) {
	ins, p := buildInstance(t)
	sketch := func(workers int) *heat.Sketch {
		ht := heat.New(heat.Options{EpochLen: 1, HalfLife: 4})
		_, err := Run(Config{
			Instance: ins, Placement: p, Mode: Parallel,
			AccessesPerClient: 60, InterAccessTime: 0.4, Seed: 29,
			Workers: workers, Heat: ht,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ht
	}
	ref := sketch(1)
	for _, w := range []int{0, 2, 4, 8} {
		if !ref.Equal(sketch(w)) {
			t.Errorf("workers=%d heat sketch differs from workers=1", w)
		}
	}
}

// TestShardedSLOReconciles: the windowed SLO accounting written
// concurrently by the shards must sum back to the run totals.
func TestShardedSLOReconciles(t *testing.T) {
	ins, p := buildInstance(t)
	rec := NewRecorder(16, 1, 0)
	rec.EnableSLO(2.0)
	stats, err := RunWithFailures(FailureConfig{
		Instance: ins, Placement: p, Mode: Parallel,
		NodeFailureProb: 0.2, MaxRetries: 2, RetryPenalty: 0.5,
		AccessesPerClient: 40, Seed: 13, Workers: 4, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var accesses, retries, aborts int64
	var maxLat float64
	for _, w := range rec.SLOWindows() {
		accesses += w.Accesses
		retries += w.Retries
		aborts += w.Aborts
		if w.MaxLatency > maxLat {
			maxLat = w.MaxLatency
		}
	}
	if accesses != int64(stats.Accesses) {
		t.Errorf("SLO window accesses = %d, want %d", accesses, stats.Accesses)
	}
	if retries != int64(stats.Retries) {
		t.Errorf("SLO window retries = %d, want %d", retries, stats.Retries)
	}
	if aborts != int64(stats.FailedOutright) {
		t.Errorf("SLO window aborts = %d, want %d", aborts, stats.FailedOutright)
	}
	if maxLat <= 0 {
		t.Error("SLO windows recorded no latency")
	}

	rec2 := NewRecorder(16, 1, 0)
	rec2.EnableSLO(2.0)
	rstats, err := Run(Config{
		Instance: ins, Placement: p, Mode: Parallel,
		AccessesPerClient: 40, InterAccessTime: 0.3, Seed: 11,
		Workers: 4, Recorder: rec2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var racc int64
	var hits int64
	for _, w := range rec2.SLOWindows() {
		racc += w.Accesses
		for _, h := range w.NodeHits {
			hits += h
		}
	}
	if racc != int64(rstats.Accesses) {
		t.Errorf("SLO window accesses = %d, want %d", racc, rstats.Accesses)
	}
	var nh int64
	for _, h := range rstats.NodeHits {
		nh += h
	}
	if hits != nh {
		t.Errorf("SLO window node hits = %d, want %d", hits, nh)
	}
}

// TestShardedRunMatchesAnalytic: a four-worker run matches the paper's
// analytic objective, as the single-worker runs in netsim_test.go do.
func TestShardedRunMatchesAnalytic(t *testing.T) {
	ins, p := buildInstance(t)
	want := ins.AvgMaxDelay(p)
	stats, err := Run(Config{
		Instance: ins, Placement: p, Mode: Parallel,
		AccessesPerClient: 4000, Seed: 3, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(stats.AvgLatency-want) / want; rel > 0.05 {
		t.Fatalf("sharded AvgΔ = %v, analytic %v (rel err %v)", stats.AvgLatency, want, rel)
	}
}

func TestParseTraceSample(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"fine", TraceSampleFine, true},
		{"coarse", TraceSampleCoarse, true},
		{"1", 1, true},
		{"64", 64, true},
		{"0", 0, false},
		{"-3", 0, false},
		{"tiny", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseTraceSample(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("ParseTraceSample(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestRecorderSeriesCap(t *testing.T) {
	ins, p := buildInstance(t)
	rec := NewRecorder(16, 1, 0.1)
	rec.seriesCap = 8
	_, err := Run(Config{
		Instance: ins, Placement: p, Mode: Parallel,
		AccessesPerClient: 50, InterAccessTime: 0.5, Seed: 7, Workers: 2,
		Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Series()); n != 8 {
		t.Errorf("series length = %d, want cap 8", n)
	}
	if rec.SeriesDropped() == 0 {
		t.Error("cap discarded no samples despite overflow")
	}
}
