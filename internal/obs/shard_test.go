package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestShardNilSafe(t *testing.T) {
	Disable()
	sh := NewShard(nil)
	if sh != nil {
		t.Fatal("NewShard returned non-nil while telemetry is off")
	}
	sp := sh.Start("x")
	if sp != nil {
		t.Fatal("nil shard returned a span")
	}
	sp.End()
	sh.Count("c", 1)
	sh.GaugeMax("gm", 1)
	sh.Observe("h", 1)
	sh.Merge()
	r := sh.Rec()
	r.Start("x").End()
	r.Count("c", 1)
	r.Observe("h", 1)
}

func TestShardSpanRemap(t *testing.T) {
	c := Enable(NewCollector())
	defer Disable()
	root := Start("parallel")
	shards := []*Shard{NewShard(root), NewShard(root)}
	for i, sh := range shards {
		w := sh.Start("worker")
		inner := sh.Start("solve")
		inner.End()
		w.End()
		sh.Count("n", int64(i+1))
	}
	for _, sh := range shards {
		sh.Merge()
	}
	root.End()

	snap := c.Snapshot()
	if len(snap.Spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(snap.Spans))
	}
	want := map[string]int{
		"parallel":              1,
		"parallel/worker":       2,
		"parallel/worker/solve": 2,
	}
	got := map[string]int{}
	for _, p := range snap.SpanPaths() {
		got[p]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("span paths = %v, want %v", got, want)
	}
	if snap.Counter("n") != 3 {
		t.Fatalf("merged counter = %d", snap.Counter("n"))
	}
	// IDs must be unique after remapping.
	seen := map[uint64]bool{}
	for _, r := range snap.Spans {
		if seen[r.ID] {
			t.Fatalf("duplicate span ID %d after merge", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestStartChildExplicitParent(t *testing.T) {
	c := Enable(NewCollector())
	defer Disable()
	root := Start("root")
	// A sibling opened on the stack must NOT capture the child below.
	decoy := Start("decoy")
	child := root.StartChild("child")
	grand := child.StartChild("grand")
	grand.End()
	child.End()
	decoy.End()
	root.End()

	paths := map[string]bool{}
	for _, p := range c.Snapshot().SpanPaths() {
		paths[p] = true
	}
	for _, want := range []string{"root", "root/decoy", "root/child", "root/child/grand"} {
		if !paths[want] {
			t.Fatalf("missing path %q in %v", want, paths)
		}
	}
	if paths["root/decoy/child"] {
		t.Fatal("StartChild span attributed to the stack-innermost decoy")
	}
}

func TestStartChildDisabled(t *testing.T) {
	Disable()
	var sp *Span
	child := sp.StartChild("x")
	if child != nil {
		t.Fatal("StartChild on nil span returned non-nil")
	}
	child.End()
}

// TestShardMergeDifferential is the tentpole's determinism check: the same
// deterministic stream recorded (a) straight into one collector and (b)
// round-robin across K shards merged in order must yield byte-identical
// histogram and counter snapshots. Values are integers so float64 sums are
// exact under any grouping.
func TestShardMergeDifferential(t *testing.T) {
	const seed, n, workers = 1234, 10_000, 7

	stream := func(yield func(name string, v float64)) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			name := []string{"lat", "load", "delay"}[rng.Intn(3)]
			yield(name, float64(1+rng.Intn(1<<20)))
		}
	}

	// (a) single collector.
	single := NewCollector()
	stream(func(name string, v float64) {
		single.Observe(name, v)
		single.Count("obs."+name, 1)
	})

	// (b) sharded: round-robin across workers, merged in worker order.
	sharded := NewCollector()
	Enable(sharded)
	defer Disable()
	shards := make([]*Shard, workers)
	for w := range shards {
		shards[w] = NewShard(nil)
	}
	i := 0
	stream(func(name string, v float64) {
		sh := shards[i%workers]
		i++
		sh.Observe(name, v)
		sh.Count("obs."+name, 1)
	})
	for _, sh := range shards {
		sh.Merge()
	}

	a, b := single.Snapshot(), sharded.Snapshot()
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("counters differ:\n%v\n%v", a.Counters, b.Counters)
	}
	ja, err := json.Marshal(a.Histograms)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Histograms)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("histogram snapshots not byte-identical:\n%s\n%s", ja, jb)
	}
	// And the underlying bucket maps, not just the rendered quantiles.
	for name, h := range single.hists {
		if !reflect.DeepEqual(h.buckets, sharded.hists[name].buckets) {
			t.Fatalf("bucket maps differ for %q", name)
		}
	}
}

// TestShardConcurrentMerge exercises shard recording and merging from many
// goroutines racing package-level recording and snapshots; run under -race
// by the obs-netsim-race CI job.
func TestShardConcurrentMerge(t *testing.T) {
	c := Enable(NewCollector())
	defer Disable()
	root := Start("root")
	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := NewShard(root)
			for i := 0; i < per; i++ {
				sp := sh.Start("work")
				sh.Count("ops", 1)
				sh.Observe("lat", float64(i+1))
				sp.End()
			}
			sh.Merge() // concurrent merges must be safe (order varies here)
		}(w)
	}
	// Race ambient recording and snapshots against the shard merges.
	for i := 0; i < 50; i++ {
		Count("ambient", 1)
		_ = c.Snapshot()
	}
	wg.Wait()
	root.End()

	snap := c.Snapshot()
	if snap.Counter("ops") != workers*per {
		t.Fatalf("ops = %d, want %d", snap.Counter("ops"), workers*per)
	}
	h := snap.Histograms["lat"]
	if h.Count != workers*per || h.Min != 1 || h.Max != per {
		t.Fatalf("lat hist = %+v", h)
	}
	if want := workers*per + 1; len(snap.Spans) != want {
		t.Fatalf("spans = %d, want %d", len(snap.Spans), want)
	}
}

func TestShardDoubleMergeInert(t *testing.T) {
	c := Enable(NewCollector())
	defer Disable()
	sh := NewShard(nil)
	sh.Count("x", 3)
	sh.Merge()
	sh.Count("x", 99) // dropped: shard is inert after merge
	sh.Merge()
	if got := c.Snapshot().Counter("x"); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

// BenchmarkShardSpan measures the contention-free span path workers use.
func BenchmarkShardSpan(b *testing.B) {
	Enable(NewCollector())
	defer Disable()
	sh := NewShard(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := sh.Start("hot")
		sp.End()
	}
}

// BenchmarkShardObserve measures shard-local histogram recording.
func BenchmarkShardObserve(b *testing.B) {
	Enable(NewCollector())
	defer Disable()
	sh := NewShard(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh.Observe("lat", float64(i&1023))
	}
}

// BenchmarkLogHistObserve measures the raw histogram record path.
func BenchmarkLogHistObserve(b *testing.B) {
	h := NewLogHist()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}
