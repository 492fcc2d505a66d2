package quorum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFailureProbabilitySingleton(t *testing.T) {
	// One quorum {0}: fails iff element 0 fails.
	s := Singleton()
	for _, p := range []float64{0, 0.25, 0.5, 1} {
		got, err := FailureProbability(s, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p) > 1e-12 {
			t.Fatalf("F_%v = %v, want %v", p, got, p)
		}
	}
}

func TestFailureProbabilityMajorityFormula(t *testing.T) {
	// Majority(3,2): system fails iff ≥ 2 of 3 elements fail:
	// F = 3p²(1-p) + p³.
	s := Majority(3, 2)
	for _, p := range []float64{0.1, 0.3, 0.5, 0.8} {
		want := 3*p*p*(1-p) + p*p*p
		got, err := FailureProbability(s, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("p=%v: F = %v, want %v", p, got, want)
		}
	}
}

// TestMajorityAvailabilityImproves: for p < 1/2, larger majorities are more
// available (the Condorcet effect the paper's references rely on).
func TestMajorityAvailabilityImproves(t *testing.T) {
	p := 0.3
	f3, err := FailureProbability(Majority(3, 2), p)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := FailureProbability(Majority(5, 3), p)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := FailureProbability(Majority(7, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	if !(f7 < f5 && f5 < f3) {
		t.Fatalf("availability not improving: F3=%v F5=%v F7=%v", f3, f5, f7)
	}
}

func TestFailureProbabilityBounds(t *testing.T) {
	if _, err := FailureProbability(Majority(3, 2), -0.1); err == nil {
		t.Fatal("negative p accepted")
	}
	if _, err := FailureProbability(Majority(3, 2), 1.1); err == nil {
		t.Fatal("p > 1 accepted")
	}
}

func TestResilience(t *testing.T) {
	cases := []struct {
		name string
		s    *System
		want int
	}{
		// Singleton: killing element 0 kills the system → resilience 0.
		{"singleton", Singleton(), 0},
		// Majority(5,3): any 2 failures leave 3 alive → resilience 2.
		{"majority 3of5", Majority(5, 3), 2},
		// Majority(5,4): 1 failure leaves 4 → resilience 1.
		{"majority 4of5", Majority(5, 4), 1},
		// Star: killing the hub kills everything → resilience 0.
		{"star", Star(5), 0},
		// Wheel: must kill the hub AND a spoke... killing the hub leaves
		// the all-spokes quorum; killing hub + one spoke kills everything
		// → min hitting set 2 → resilience 1.
		{"wheel", Wheel(5), 1},
		// Grid k: killing one row kills every quorum (each quorum spans
		// all rows via its column... each quorum contains a full row and
		// hits every row via the column) — a full row of k elements hits
		// every quorum; nothing smaller does → resilience k-1.
		{"grid 2", Grid(2), 1},
		{"grid 3", Grid(3), 2},
		// FPP(2): lines of the Fano plane; min hitting set is a line (3
		// points) → resilience 2.
		{"fpp 2", FPP(2), 2},
		// Recursive majority height 1 = Majority(3,2).
		{"recmajority h1", RecursiveMajority(1), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := mustResilience(t, tc.s); got != tc.want {
				t.Fatalf("Resilience = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestMinQuorumSizeAndLoadLowerBound(t *testing.T) {
	s := Grid(3) // quorums of 5 on 9 elements
	if got := MinQuorumSize(s); got != 5 {
		t.Fatalf("MinQuorumSize = %d, want 5", got)
	}
	// max(1/5, 5/9) = 5/9.
	if got := LoadLowerBound(s); math.Abs(got-5.0/9) > 1e-12 {
		t.Fatalf("LoadLowerBound = %v, want %v", got, 5.0/9)
	}
	w := Wheel(6)
	if got := MinQuorumSize(w); got != 2 {
		t.Fatalf("wheel MinQuorumSize = %d, want 2", got)
	}
	if got := LoadLowerBound(w); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("wheel LoadLowerBound = %v, want 0.5", got)
	}
}

// TestOptimalStrategyMeetsLowerBound: the LP-optimal load always respects
// the Naor–Wool bound, and meets it exactly for the Grid and FPP.
func TestOptimalStrategyMeetsLowerBound(t *testing.T) {
	for _, s := range []*System{Grid(2), Grid(3), FPP(2), FPP(3), Majority(5, 3)} {
		_, load, err := OptimalStrategy(s)
		if err != nil {
			t.Fatal(err)
		}
		lb := LoadLowerBound(s)
		if load < lb-1e-6 {
			t.Fatalf("%s: optimal load %v below lower bound %v", s.Name(), load, lb)
		}
	}
	// Grid meets the bound exactly: load = (2k-1)/k² = c/n with c = 2k-1.
	_, load, err := OptimalStrategy(Grid(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(load-LoadLowerBound(Grid(3))) > 1e-6 {
		t.Fatalf("grid-3 load %v does not meet its lower bound %v", load, LoadLowerBound(Grid(3)))
	}
}

func TestRecursiveMajorityShape(t *testing.T) {
	h1 := RecursiveMajority(1)
	if h1.Universe() != 3 || h1.NumQuorums() != 3 {
		t.Fatalf("h1: universe=%d quorums=%d, want 3, 3", h1.Universe(), h1.NumQuorums())
	}
	h2 := RecursiveMajority(2)
	if h2.Universe() != 9 || h2.NumQuorums() != 27 {
		t.Fatalf("h2: universe=%d quorums=%d, want 9, 27", h2.Universe(), h2.NumQuorums())
	}
	for i := 0; i < h2.NumQuorums(); i++ {
		if len(h2.Quorum(i)) != 4 {
			t.Fatalf("h2 quorum %d has %d elements, want 4", i, len(h2.Quorum(i)))
		}
	}
	// Intersection is verified by construction (mustNewSystem); double check.
	if err := h2.VerifyIntersection(); err != nil {
		t.Fatal(err)
	}
	h3 := RecursiveMajority(3)
	if h3.Universe() != 27 || h3.NumQuorums() != 3*27*27 {
		t.Fatalf("h3: universe=%d quorums=%d, want 27, %d", h3.Universe(), h3.NumQuorums(), 3*27*27)
	}
}

// TestFailureProbabilityMonotoneProperty: F_p is nondecreasing in p for
// random systems (testing/quick over thresholds and probabilities).
func TestFailureProbabilityMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		th := n/2 + 1
		s := Majority(n, th)
		p1 := rng.Float64()
		p2 := rng.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		f1, err := FailureProbability(s, p1)
		if err != nil {
			return false
		}
		f2, err := FailureProbability(s, p2)
		if err != nil {
			return false
		}
		return f1 <= f2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestResilienceMatchesFailureEnumeration: resilience f means some (f+1)-set
// kills the system but no f-set does; cross-check by enumeration.
func TestResilienceMatchesFailureEnumeration(t *testing.T) {
	systems := []*System{Majority(5, 3), Grid(2), Wheel(4), FPP(2), CrumblingWalls([]int{2, 2})}
	for _, s := range systems {
		r := mustResilience(t, s)
		masks := s.quorumMasks()
		n := s.Universe()
		killsAll := func(dead uint64) bool {
			for _, qm := range masks {
				if qm&dead == 0 {
					return false
				}
			}
			return true
		}
		// No failure set of size ≤ r kills the system.
		for dead := uint64(0); dead < 1<<uint(n); dead++ {
			k := popcount(dead)
			if k <= r && killsAll(dead) {
				t.Fatalf("%s: failure set %b of size %d ≤ resilience %d kills the system", s.Name(), dead, k, r)
			}
		}
		// Some failure set of size r+1 kills it.
		found := false
		for dead := uint64(0); dead < 1<<uint(n); dead++ {
			if popcount(dead) == r+1 && killsAll(dead) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no failure set of size %d kills the system; resilience %d too low", s.Name(), r+1, r)
		}
	}
}

func mustResilience(t *testing.T, s *System) int {
	t.Helper()
	r, err := Resilience(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
