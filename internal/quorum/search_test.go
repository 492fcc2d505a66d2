package quorum

import (
	"math"
	"math/rand"
	"testing"
)

// systemFromBytes reads an intersecting system over at most 12 elements
// from data: the first byte sets the universe, and each following pair of
// bytes is a quorum bitmask, kept only when it is non-empty and meets every
// quorum kept before it. It returns nil when no quorum is kept.
func systemFromBytes(data []byte) *System {
	if len(data) < 3 {
		return nil
	}
	n := 1 + int(data[0])%12
	var masks []uint64
	var quorums [][]int
	for i := 1; i+1 < len(data) && len(quorums) < 64; i += 2 {
		m := (uint64(data[i]) | uint64(data[i+1])<<8) & (1<<uint(n) - 1)
		meetsAll := m != 0
		for _, k := range masks {
			meetsAll = meetsAll && m&k != 0
		}
		if !meetsAll {
			continue
		}
		masks = append(masks, m)
		var q []int
		for u := 0; u < n; u++ {
			if m&(1<<uint(u)) != 0 {
				q = append(q, u)
			}
		}
		quorums = append(quorums, q)
	}
	if len(quorums) == 0 {
		return nil
	}
	s, err := NewSystem("bytes", n, quorums)
	if err != nil {
		panic(err)
	}
	return s
}

// checkAgainstBruteForce compares Transversals, Resilience, IsNonDominated
// and FailureProbability with an enumeration of all 2^n element sets. A
// set that hits every quorum is a transversal, and kills the system when
// its elements fail; the system is non-dominated iff every transversal
// contains a quorum.
func checkAgainstBruteForce(t *testing.T, s *System) {
	t.Helper()
	const p = 0.3
	n, masks := s.Universe(), s.quorumMasks()
	hitsAll := func(set uint64) bool {
		for _, m := range masks {
			if m&set == 0 {
				return false
			}
		}
		return true
	}
	var trans [][]int
	minHit, nd, fail := n, true, 0.0
	for set := uint64(0); set < 1<<uint(n); set++ {
		if !hitsAll(set) {
			continue
		}
		k := popcount(set)
		minHit = min(minHit, k)
		fail += math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		containsQuorum, minimal := false, true
		for _, m := range masks {
			containsQuorum = containsQuorum || m&^set == 0
		}
		nd = nd && containsQuorum
		var tr []int
		for u := 0; u < n; u++ {
			if bit := uint64(1) << uint(u); set&bit != 0 {
				minimal = minimal && !hitsAll(set&^bit)
				tr = append(tr, u)
			}
		}
		if minimal {
			trans = append(trans, tr)
		}
	}
	sortQuorumList(trans)

	if got, err := Transversals(s); err != nil || !equalQuorumLists(got, trans) {
		t.Fatalf("%v: Transversals = %v, %v; brute force %v", s.Quorums(), got, err, trans)
	}
	if got, err := Resilience(s); err != nil || got != minHit-1 {
		t.Fatalf("%v: Resilience = %d, %v; brute force %d", s.Quorums(), got, err, minHit-1)
	}
	if got, err := IsNonDominated(s); err != nil || got != nd {
		t.Fatalf("%v: IsNonDominated = %v, %v; brute force %v", s.Quorums(), got, err, nd)
	}
	if got, err := FailureProbability(s, p); err != nil || math.Abs(got-fail) > 1e-12 {
		t.Fatalf("%v: FailureProbability = %v, %v; brute force %v", s.Quorums(), got, err, fail)
	}
}

// TestSearchMatchesBruteForce checks the hitting-set search on random
// intersecting systems of up to 12 elements, antichains or not.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for checked < 500 {
		data := make([]byte, 3+rng.Intn(40))
		rng.Read(data)
		if s := systemFromBytes(data); s != nil {
			checkAgainstBruteForce(t, s)
			checked++
		}
	}
}

// TestSearchErrors: past 64 elements every search returns an error, as
// does a search past its budget.
func TestSearchErrors(t *testing.T) {
	big := FPP(8) // 73 elements
	if _, err := Transversals(big); err == nil {
		t.Error("Transversals accepted 73 elements")
	}
	if _, err := Resilience(big); err == nil {
		t.Error("Resilience accepted 73 elements")
	}
	if _, err := IsNonDominated(big); err == nil {
		t.Error("IsNonDominated accepted 73 elements")
	}
	// Grid(8) has more than 8^8 minimal transversals (one element from
	// each row makes one), and each costs a test of all 64 quorums, so
	// enumerating them passes the budget; its domination still comes out.
	s := Grid(8)
	if _, err := Transversals(s); err == nil {
		t.Error("Transversals of grid-8x8 finished within the budget")
	}
	if nd, err := IsNonDominated(s); err != nil || nd {
		t.Errorf("IsNonDominated(grid-8x8) = %v, %v, want false", nd, err)
	}
}

// FuzzHittingSetSearch checks the search against the brute force on the
// systems systemFromBytes reads from fuzzed bytes.
func FuzzHittingSetSearch(f *testing.F) {
	f.Add([]byte{2, 0x03, 0, 0x05, 0, 0x06, 0})          // majority 2 of 3
	f.Add([]byte{3, 0x07, 0, 0x09, 0, 0x0a, 0, 0x0c, 0}) // wheel on 4
	f.Add([]byte{11, 0xff, 0x0f, 0x3f, 0, 0xc1, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if s := systemFromBytes(data); s != nil {
			checkAgainstBruteForce(t, s)
		}
	})
}
