package quorum

import (
	"fmt"
	"math/bits"
	"sort"
)

// Coterie theory, after Garcia-Molina & Barbara ("How to assign votes in a
// distributed system") and Ibaraki–Kameda. A coterie is an antichain quorum
// system (no quorum contains another). The dual of a system is the family
// of its minimal transversals (minimal sets hitting every quorum); a
// coterie is non-dominated — no other coterie has uniformly superior
// availability — exactly when it equals its double dual. These tools are
// useful for characterizing the input systems the placement algorithms are
// given (§1's "choose the input quorum system from the existing literature
// to achieve ... any other desired criterion").

// MinimalQuorums returns the antichain of s: the quorums with no proper
// sub-quorum in the system, deduplicated and in deterministic order.
func MinimalQuorums(s *System) [][]int {
	var out [][]int
	for i, q := range s.quorums {
		minimal := true
		for j, q2 := range s.quorums {
			if i == j {
				continue
			}
			if len(q2) < len(q) && isSubset(q2, q) {
				minimal = false
				break
			}
			// Equal sets: keep only the first occurrence.
			if len(q2) == len(q) && j < i && isSubset(q2, q) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, append([]int(nil), q...))
		}
	}
	sortQuorumList(out)
	return out
}

// transversalSearch enumerates the minimal transversals of a family of
// quorums over at most 64 elements, each quorum a bitmask. A node is a
// chosen set and an excluded set. It takes the quorum the chosen set misses
// with the fewest elements not excluded (the first such in order) and
// branches on those elements in order; each branch excludes the elements
// its earlier siblings chose, so every minimal transversal is reached by
// exactly one path. A node whose chosen set has an element that hits no
// quorum alone (no private quorum) is pruned: no superset of it is
// minimal. Every leaf is therefore a minimal transversal, and no set needs
// minimizing or deduplicating.
type transversalSearch struct {
	masks []uint64
	// limit is the largest transversal size still wanted; visit returns
	// the new limit, and a negative one ends the search.
	limit int
	visit func(t uint64) int
	tests int
}

func (ts *transversalSearch) node(chosen, excluded uint64, size int) error {
	if ts.tests += len(ts.masks); ts.tests > maxMaskTests {
		return errBudget
	}
	var private, missed uint64
	hitsAll := true
	for _, m := range ts.masks {
		h := m & chosen
		if h&(h-1) == 0 { // at most one chosen element hits m
			private |= h
		}
		if h == 0 {
			c := m &^ excluded
			if hitsAll || popcount(c) < popcount(missed) {
				missed, hitsAll = c, false
			}
		}
	}
	switch {
	case private != chosen:
		return nil
	case hitsAll:
		ts.limit = ts.visit(chosen)
		return nil
	}
	for cand := missed; cand != 0 && size < ts.limit; cand &= cand - 1 {
		u := cand & -cand
		if err := ts.node(chosen|u, excluded, size+1); err != nil {
			return err
		}
		excluded |= u
	}
	return nil
}

// searchTransversals runs the hitting-set search over the quorums of s.
// It fails past 64 elements or past maxMaskTests.
func (s *System) searchTransversals(limit int, visit func(t uint64) int) error {
	if s.universe > 64 {
		return fmt.Errorf("quorum: %s has %d elements; the hitting-set search handles at most 64", s.name, s.universe)
	}
	ts := transversalSearch{masks: s.quorumMasks(), limit: limit, visit: visit}
	if err := ts.node(0, 0, 0); err != nil {
		return fmt.Errorf("quorum: %s: %w", s.name, err)
	}
	return nil
}

// Transversals returns all minimal transversals of s: inclusion-minimal
// sets of elements that intersect every quorum. The quorums of the dual
// system. Exponential in the worst case, so it fails past 64 elements or
// past the search budget.
func Transversals(s *System) ([][]int, error) {
	var found []uint64
	err := s.searchTransversals(64, func(t uint64) int {
		found = append(found, t)
		return 64
	})
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(found))
	for i, t := range found {
		for ; t != 0; t &= t - 1 {
			out[i] = append(out[i], bits.TrailingZeros64(t))
		}
	}
	sortQuorumList(out)
	return out, nil
}

// IsNonDominated reports whether the system's antichain is a non-dominated
// coterie: no coterie D ≠ C has every quorum of C containing a quorum of D
// (Garcia-Molina–Barbara). The classical characterization used here:
// C is ND iff every transversal of C contains a quorum, which for an
// antichain is equivalent to self-duality, Tr(C) = C. Every quorum of an
// intersecting system contains a minimal transversal, so the search stops
// at the first minimal transversal that is not a quorum. It fails past 64
// elements or past the search budget.
func IsNonDominated(s *System) (bool, error) {
	quorums := map[uint64]bool{}
	for _, m := range s.quorumMasks() {
		quorums[m] = true
	}
	nd := true
	err := s.searchTransversals(64, func(t uint64) int {
		if !quorums[t] {
			nd = false
			return -1
		}
		return 64
	})
	return nd && err == nil, err
}

func sortQuorumList(qs [][]int) {
	sort.Slice(qs, func(a, b int) bool {
		x, y := qs[a], qs[b]
		for i := 0; i < len(x) && i < len(y); i++ {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return len(x) < len(y)
	})
}
