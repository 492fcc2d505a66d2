package quorum

import (
	"testing"
)

func TestMinimalQuorums(t *testing.T) {
	s, err := NewSystem("t", 4, [][]int{{0, 1}, {0, 1, 2}, {1, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	min := MinimalQuorums(s)
	want := [][]int{{0, 1}, {1, 2}}
	if !equalQuorumLists(min, want) {
		t.Fatalf("MinimalQuorums = %v, want %v", min, want)
	}
}

func TestTransversalsMajority(t *testing.T) {
	// Majority(3,2): quorums {01,02,12}; minimal transversals are exactly
	// the quorums themselves (self-dual coterie).
	s := Majority(3, 2)
	trans := mustTransversals(t, s)
	want := [][]int{{0, 1}, {0, 2}, {1, 2}}
	if !equalQuorumLists(trans, want) {
		t.Fatalf("Transversals = %v, want %v", trans, want)
	}
}

func TestTransversalsStar(t *testing.T) {
	// Star(4): quorums {0,1},{0,2},{0,3}. Minimal transversals: {0} and
	// {1,2,3}.
	s := Star(4)
	trans := mustTransversals(t, s)
	want := [][]int{{0}, {1, 2, 3}}
	if !equalQuorumLists(trans, want) {
		t.Fatalf("Transversals = %v, want %v", trans, want)
	}
}

func TestTransversalsGridNonIntersecting(t *testing.T) {
	// Grid(2) is dominated: {0,3} and {1,2} are disjoint minimal
	// transversals (each hits every row∪column quorum).
	s := Grid(2)
	trans := mustTransversals(t, s)
	found03, found12 := false, false
	for _, tr := range trans {
		if len(tr) == 2 && tr[0] == 0 && tr[1] == 3 {
			found03 = true
		}
		if len(tr) == 2 && tr[0] == 1 && tr[1] == 2 {
			found12 = true
		}
	}
	if !found03 || !found12 {
		t.Fatalf("expected disjoint transversals {0,3} and {1,2}, got %v", trans)
	}
	// Consequently the transversal family is no quorum system.
	if _, err := NewSystem("grid-2x2-dual", s.Universe(), trans); err == nil {
		t.Fatal("transversals of Grid(2) unexpectedly intersecting")
	}
}

// TestTransversalsMeetAllQuorums: every reported transversal hits every
// quorum, and is minimal (dropping any element misses some quorum).
func TestTransversalsMeetAllQuorums(t *testing.T) {
	for _, s := range []*System{Majority(5, 3), Grid(2), Grid(3), Wheel(5), FPP(2), Star(5), Tree(2)} {
		for _, tr := range mustTransversals(t, s) {
			for qi := 0; qi < s.NumQuorums(); qi++ {
				if !sortedIntersect(tr, s.Quorum(qi)) {
					t.Fatalf("%s: transversal %v misses quorum %v", s.Name(), tr, s.Quorum(qi))
				}
			}
			for drop := range tr {
				reduced := append(append([]int(nil), tr[:drop]...), tr[drop+1:]...)
				hitsAll := true
				for qi := 0; qi < s.NumQuorums(); qi++ {
					if !sortedIntersect(reduced, s.Quorum(qi)) {
						hitsAll = false
						break
					}
				}
				if hitsAll && len(reduced) > 0 {
					t.Fatalf("%s: transversal %v not minimal (can drop %d)", s.Name(), tr, tr[drop])
				}
			}
		}
	}
}

// TestSelfDualSystems: odd majorities and the Fano plane are self-dual
// (their minimal transversals are their minimal quorums) and hence
// non-dominated.
func TestSelfDualSystems(t *testing.T) {
	for _, s := range []*System{Majority(3, 2), Majority(5, 3), FPP(2)} {
		min, trans := MinimalQuorums(s), mustTransversals(t, s)
		if !equalQuorumLists(min, trans) {
			t.Fatalf("%s is not self-dual: %d transversals vs %d minimal quorums", s.Name(), len(trans), len(min))
		}
	}
}

func TestIsNonDominated(t *testing.T) {
	cases := []struct {
		name string
		s    *System
		want bool
	}{
		// Odd majorities are the canonical ND coteries.
		{"majority 2of3", Majority(3, 2), true},
		{"majority 3of5", Majority(5, 3), true},
		// The Fano plane is ND (self-dual).
		{"fpp 2", FPP(2), true},
		// Singleton is ND.
		{"singleton", Singleton(), true},
		// Star: the transversal {0} contains no quorum → dominated.
		{"star", Star(4), false},
		// Even majority t = n/2+1 is dominated.
		{"majority 3of4", Majority(4, 3), false},
		// Grid is dominated (disjoint transversals exist).
		{"grid 2", Grid(2), false},
		// Tree quorum of height 1 equals Majority(3,2) → ND.
		{"tree h1", Tree(1), true},
		// Wheel: transversals are {hub, spoke} and the all-spokes set —
		// exactly the quorums → ND.
		{"wheel 5", Wheel(5), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := IsNonDominated(tc.s); err != nil || got != tc.want {
				t.Fatalf("IsNonDominated = %v, %v, want %v", got, err, tc.want)
			}
		})
	}
}

// TestDoubleTransversalInvolution: Tr(Tr(H)) = H for every antichain — a
// classical hypergraph identity that exercises the enumerator from both
// sides. The middle family may not be intersecting, so work with raw
// transversal lists.
func TestDoubleTransversalInvolution(t *testing.T) {
	for _, s := range []*System{Majority(4, 3), Grid(2), Star(4), Wheel(5), Majority(5, 3), Tree(2)} {
		min := MinimalQuorums(s)
		minSys, err := NewSystem("min", s.Universe(), min)
		if err != nil {
			t.Fatal(err)
		}
		tr1 := mustTransversals(t, minSys)
		// Build a raw holder for the (possibly non-intersecting) family:
		// compute transversals directly from masks.
		tr2 := transversalsOfFamily(s.Universe(), tr1)
		if !equalQuorumLists(tr2, min) {
			t.Fatalf("%s: Tr(Tr(C)) = %v, want %v", s.Name(), tr2, min)
		}
	}
}

// transversalsOfFamily enumerates minimal transversals of an arbitrary set
// family (no intersection requirement) with the search Transversals runs.
func transversalsOfFamily(universe int, family [][]int) [][]int {
	masks := make([]uint64, len(family))
	for i, q := range family {
		var m uint64
		for _, u := range q {
			m |= 1 << uint(u)
		}
		masks[i] = m
	}
	var out [][]int
	ts := transversalSearch{masks: masks, limit: universe, visit: func(f uint64) int {
		var tr []int
		for u := 0; u < universe; u++ {
			if f&(1<<uint(u)) != 0 {
				tr = append(tr, u)
			}
		}
		out = append(out, tr)
		return universe
	}}
	if err := ts.node(0, 0, 0); err != nil {
		panic(err)
	}
	sortQuorumList(out)
	return out
}

// TestResilienceViaTransversals: resilience = (size of smallest
// transversal) − 1; cross-check the two implementations.
func TestResilienceViaTransversals(t *testing.T) {
	for _, s := range []*System{Majority(5, 3), Grid(3), Wheel(5), FPP(2), Star(5), CrumblingWalls([]int{2, 2})} {
		trans := mustTransversals(t, s)
		min := s.Universe() + 1
		for _, tr := range trans {
			if len(tr) < min {
				min = len(tr)
			}
		}
		if got := mustResilience(t, s); got != min-1 {
			t.Fatalf("%s: Resilience = %d, smallest transversal %d", s.Name(), got, min)
		}
	}
}

func mustTransversals(t *testing.T, s *System) [][]int {
	t.Helper()
	trans, err := Transversals(s)
	if err != nil {
		t.Fatal(err)
	}
	return trans
}

func equalQuorumLists(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
