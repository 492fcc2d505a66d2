package heat

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// synthStream generates a deterministic synthetic access stream: ascending
// issue times with jitter, zipf-ish client choice, 3-node message fan-out.
type access struct {
	at     float64
	client int
	nodes  []int
}

func synthStream(seed int64, n, count int) []access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]access, count)
	at := 0.0
	for i := range out {
		at += rng.Float64() * 0.3
		c := rng.Intn(n)
		if rng.Float64() < 0.5 { // skew half the mass onto low indices
			c = rng.Intn(1 + n/4)
		}
		nodes := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
		out[i] = access{at: at, client: c, nodes: nodes}
	}
	return out
}

func feed(s *Sketch, stream []access) {
	for _, a := range stream {
		s.Observe(a.at, a.client, a.nodes)
	}
}

func TestSketchCounts(t *testing.T) {
	s := New(Options{EpochLen: 1})
	s.Observe(0.1, 2, []int{0, 1})
	s.Observe(0.9, 2, []int{1, 1})
	s.Observe(3.5, 0, []int{2})
	if got := s.Accesses(); got != 3 {
		t.Fatalf("accesses %d, want 3", got)
	}
	if got := s.Messages(); got != 5 {
		t.Fatalf("messages %d, want 5", got)
	}
	if got := s.Epochs(); got != 2 {
		t.Fatalf("epochs %d, want 2", got)
	}
	ct := s.ClientTotals()
	if ct[2] != 2 || ct[0] != 1 {
		t.Fatalf("client totals %v", ct)
	}
	nt := s.NodeTotals()
	if nt[0] != 1 || nt[1] != 3 || nt[2] != 1 {
		t.Fatalf("node totals %v", nt)
	}
	// Repeated node entries count once per message, like netsim NodeHits.
	top := s.TopNodes(1)
	if len(top) != 1 || top[0].Key != 1 || top[0].Count != 3 {
		t.Fatalf("top node %+v", top)
	}
}

func TestSketchIgnoresBadInput(t *testing.T) {
	s := New(Options{})
	s.Observe(-1, 0, nil)
	s.Observe(math.NaN(), 0, nil)
	s.Observe(1, -1, nil)
	s.Observe(1, 0, []int{-5})
	if s.Accesses() != 1 || s.Messages() != 0 {
		t.Fatalf("accesses %d messages %d after bad input", s.Accesses(), s.Messages())
	}
}

// TestShardedMergeEqualsSingleStream is the core merge contract: any
// sharding of the stream, merged in any order, is bitwise identical to the
// single-stream sketch — including the float views derived at read time.
func TestShardedMergeEqualsSingleStream(t *testing.T) {
	stream := synthStream(7, 20, 5000)
	for _, shards := range []int{2, 3, 8} {
		single := New(Options{EpochLen: 0.5})
		feed(single, stream)
		parts := make([]*Sketch, shards)
		for i := range parts {
			parts[i] = New(Options{EpochLen: 0.5})
		}
		for i, a := range stream {
			parts[i%shards].Observe(a.at, a.client, a.nodes)
		}
		// Merge right-to-left to exercise an order other than feed order.
		merged := New(Options{EpochLen: 0.5})
		for i := len(parts) - 1; i >= 0; i-- {
			if err := merged.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !merged.Equal(single) {
			t.Fatalf("shards=%d: merged state differs from single stream", shards)
		}
		if !single.Equal(merged) {
			t.Fatalf("shards=%d: Equal not symmetric", shards)
		}
		mr, sr := merged.ClientRates(), single.ClientRates()
		for v := range sr {
			if mr[v] != sr[v] {
				t.Fatalf("shards=%d: client rate[%d] %v != %v (must be bitwise equal)", shards, v, mr[v], sr[v])
			}
		}
		md, _ := merged.Drift(nil)
		sd, _ := single.Drift(nil)
		if md.TV != sd.TV {
			t.Fatalf("shards=%d: drift %v != %v", shards, md.TV, sd.TV)
		}
	}
}

func TestMergeRejectsIncompatible(t *testing.T) {
	a := New(Options{EpochLen: 1})
	if err := a.Merge(New(Options{EpochLen: 2})); err == nil {
		t.Fatal("merged mismatched epoch lengths")
	}
	if err := a.Merge(New(Options{HalfLife: 3})); err == nil {
		t.Fatal("merged mismatched half-lives")
	}
	if err := a.Merge(a); err == nil {
		t.Fatal("merged a sketch into itself")
	}
}

func TestEWMATracksShift(t *testing.T) {
	// Client 0 dominates early epochs, client 1 late ones: cumulative
	// totals stay balanced while the EWMA forgets the past.
	s := New(Options{EpochLen: 1, HalfLife: 1})
	for e := 0; e < 10; e++ {
		c := 0
		if e >= 5 {
			c = 1
		}
		for i := 0; i < 100; i++ {
			s.Observe(float64(e)+0.5, c, nil)
		}
	}
	rates := s.ClientRates()
	if rates[1] < 10*rates[0] {
		t.Fatalf("EWMA did not shift: rates %v", rates)
	}
	cum, _ := s.Drift(nil)
	recent, _ := s.RecentDrift(nil)
	if recent.TV <= cum.TV {
		t.Fatalf("recent drift %v should exceed cumulative %v after a shift", recent.TV, cum.TV)
	}
}

func TestEWMADecaysAcrossGaps(t *testing.T) {
	// A burst followed by a long silent gap then one access: the burst's
	// weight must have decayed by λ^gap, identical to folding the empty
	// epochs one by one.
	s := New(Options{EpochLen: 1, HalfLife: 1})
	for i := 0; i < 64; i++ {
		s.Observe(0.5, 0, nil)
	}
	s.Observe(10.5, 1, nil)
	rates := s.ClientRates()
	// Client 0: (1-λ)·64 after epoch 0, then 10 decays of λ=0.5 → 2^-11·64.
	want := 64.0 / 2048
	if math.Abs(rates[0]-want) > 1e-12 {
		t.Fatalf("rate[0] %v, want %v", rates[0], want)
	}
}

func TestSketchConcurrentObserve(t *testing.T) {
	// Concurrency safety (run under -race): total counts must add up.
	s := New(Options{})
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Observe(float64(i)*0.01, w, []int{w})
			}
		}(w)
	}
	wg.Wait()
	if s.Accesses() != workers*per || s.Messages() != workers*per {
		t.Fatalf("accesses %d messages %d", s.Accesses(), s.Messages())
	}
}

// TestTopClientsExactOrder pins the heavy-hitter view: exact counts,
// count descending with ties toward the smaller index, truncated to k.
func TestTopClientsExactOrder(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 10; i++ {
		s.Observe(0.5, i%3, nil)
	}
	want := []TopEntry{{Key: 0, Count: 4}, {Key: 1, Count: 3}, {Key: 2, Count: 3}}
	if top := s.TopClients(0); !reflect.DeepEqual(top, want) {
		t.Fatalf("top clients %v, want %v", top, want)
	}
	if top := s.TopClients(2); !reflect.DeepEqual(top, want[:2]) {
		t.Fatalf("top 2 clients %v, want %v", top, want[:2])
	}
}
