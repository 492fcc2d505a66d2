package quorum

import (
	"math"
	"strings"
	"testing"
)

func TestCombinationsCount(t *testing.T) {
	if got := len(combinations(5, 2)); got != 10 {
		t.Fatalf("C(5,2) enumeration = %d, want 10", got)
	}
	if got := len(combinations(4, 4)); got != 1 {
		t.Fatalf("C(4,4) enumeration = %d, want 1", got)
	}
}

func TestGiffordVoting(t *testing.T) {
	rw := GiffordVoting(5, 2, 4) // r+w=6 > 5, 2w=8 > 5
	if rw.Universe() != 5 {
		t.Fatalf("universe = %d, want 5", rw.Universe())
	}
	if rw.NumReadQuorums() != 10 { // C(5,2)
		t.Fatalf("read quorums = %d, want 10", rw.NumReadQuorums())
	}
	if rw.NumWriteQuorums() != 5 { // C(5,4)
		t.Fatalf("write quorums = %d, want 5", rw.NumWriteQuorums())
	}
	// Reads of size 2 with r+w > n must meet every write of size 4.
	for i := 0; i < rw.NumReadQuorums(); i++ {
		for j := 0; j < rw.NumWriteQuorums(); j++ {
			if !sortedIntersect(rw.ReadQuorum(i), rw.WriteQuorum(j)) {
				t.Fatalf("read %d misses write %d", i, j)
			}
		}
	}
}

func TestGiffordVotingPanics(t *testing.T) {
	cases := []struct{ n, r, w int }{
		{5, 1, 4}, // r+w = n: reads can miss the latest write
		{5, 3, 2}, // 2w ≤ n: writes not serialized
		{5, 0, 5}, // r < 1
		{5, 6, 5}, // r > n
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GiffordVoting(%d,%d,%d) did not panic", tc.n, tc.r, tc.w)
				}
			}()
			GiffordVoting(tc.n, tc.r, tc.w)
		}()
	}
}

func TestNewRWSystemValidation(t *testing.T) {
	if _, err := NewRWSystem("x", 0, [][]int{{0}}, [][]int{{0}}); err == nil {
		t.Fatal("zero universe accepted")
	}
	if _, err := NewRWSystem("x", 2, nil, [][]int{{0}}); err == nil {
		t.Fatal("empty read family accepted")
	}
	// Writes not pairwise intersecting.
	if _, err := NewRWSystem("x", 4, [][]int{{0, 1, 2, 3}}, [][]int{{0, 1}, {2, 3}}); err == nil {
		t.Fatal("non-intersecting writes accepted")
	}
	// A read missing a write.
	if _, err := NewRWSystem("x", 4, [][]int{{0}}, [][]int{{1, 2, 3}}); err == nil {
		t.Fatal("read/write miss accepted")
	}
	// Reads that do not pairwise intersect are fine.
	rw, err := NewRWSystem("ok", 4, [][]int{{0, 1}, {2, 3}}, [][]int{{0, 1, 2, 3}})
	if err != nil {
		t.Fatalf("valid bicoterie rejected: %v", err)
	}
	if rw.NumReadQuorums() != 2 {
		t.Fatalf("read quorums = %d, want 2", rw.NumReadQuorums())
	}
	// Bad read shapes are still rejected.
	if _, err := NewRWSystem("x", 4, [][]int{{0, 0}}, [][]int{{0, 1, 2, 3}}); err == nil {
		t.Fatal("duplicate read element accepted")
	}
	if _, err := NewRWSystem("x", 4, [][]int{{7}}, [][]int{{0, 1, 2, 3}}); err == nil {
		t.Fatal("out-of-range read element accepted")
	}
}

func TestCombine(t *testing.T) {
	rw := GiffordVoting(4, 2, 3)
	sys, st, err := rw.Combine(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumQuorums() != rw.NumReadQuorums()+rw.NumWriteQuorums() {
		t.Fatalf("combined quorums = %d, want %d", sys.NumQuorums(), rw.NumReadQuorums()+rw.NumWriteQuorums())
	}
	// Read mass sums to 0.8, write mass to 0.2.
	readMass := 0.0
	for i := 0; i < rw.NumReadQuorums(); i++ {
		readMass += st.P(i)
	}
	if math.Abs(readMass-0.8) > 1e-12 {
		t.Fatalf("read mass %v, want 0.8", readMass)
	}
	// Loads: heavier read mix shifts load toward... all elements symmetric
	// here; total load = Σ p(Q)·|Q| = 0.8·2 + 0.2·3 = 2.2.
	loads, err := sys.Loads(st)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if math.Abs(total-2.2) > 1e-12 {
		t.Fatalf("total load %v, want 2.2", total)
	}
}

func TestCombineValidation(t *testing.T) {
	rw := GiffordVoting(4, 2, 3)
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, _, err := rw.Combine(bad); err == nil {
			t.Errorf("Combine(%v) accepted", bad)
		}
	}
	// Degenerate mixes are fine.
	for _, ok := range []float64{0, 1} {
		if _, _, err := rw.Combine(ok); err != nil {
			t.Errorf("Combine(%v) rejected: %v", ok, err)
		}
	}
}

// TestCombinedPlacementCompatibility: the combined system flows through the
// standard Loads/MaxLoad machinery (used downstream by placement).
func TestCombinedPlacementCompatibility(t *testing.T) {
	rw := GiffordVoting(5, 2, 4)
	sys, st, err := rw.Combine(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MaxLoad(st); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(sys.Name(), "-combined") {
		t.Fatalf("combined system name %q", sys.Name())
	}
}
