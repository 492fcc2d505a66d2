package quorum

import (
	"fmt"
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

// Transversals returns all minimal transversals of s: inclusion-minimal
// sets of elements that intersect every quorum. The quorums of the dual
// system. Exponential in the worst case; intended for the small systems in
// this library (universe ≤ ~20).
func Transversals(s *System) [][]int {
	if s.universe > 63 {
		panic(fmt.Sprintf("quorum: transversal enumeration limited to 63 elements, got %d", s.universe))
	}
	masks := s.quorumMasks()
	var found []uint64
	// Branch over the first un-hit quorum, as in Resilience, but keep all
	// minimal solutions rather than just the size.
	var rec func(hit uint64)
	rec = func(hit uint64) {
		var missing uint64
		complete := true
		for _, qm := range masks {
			if qm&hit == 0 {
				missing = qm
				complete = false
				break
			}
		}
		if complete {
			// Minimize: drop any redundant element.
			min := minimizeTransversal(hit, masks)
			for _, f := range found {
				if f == min {
					return
				}
			}
			found = append(found, min)
			return
		}
		for u := 0; u < s.universe; u++ {
			if missing&(1<<uint(u)) != 0 {
				rec(hit | 1<<uint(u))
			}
		}
	}
	rec(0)
	// Deduplicate and drop non-minimal ones (minimizeTransversal gives a
	// minimal set, but different branches can yield supersets of another
	// branch's result before minimization; after it, sets are minimal but
	// may still duplicate).
	var out [][]int
	seen := map[uint64]bool{}
	for _, f := range found {
		if seen[f] {
			continue
		}
		seen[f] = true
		var t []int
		for u := 0; u < s.universe; u++ {
			if f&(1<<uint(u)) != 0 {
				t = append(t, u)
			}
		}
		out = append(out, t)
	}
	sortQuorumList(out)
	return out
}

// minimizeTransversal greedily removes redundant elements (highest index
// first) while the set still hits every quorum.
func minimizeTransversal(hit uint64, masks []uint64) uint64 {
	for u := 63; u >= 0; u-- {
		bit := uint64(1) << uint(u)
		if hit&bit == 0 {
			continue
		}
		cand := hit &^ bit
		ok := true
		for _, qm := range masks {
			if qm&cand == 0 {
				ok = false
				break
			}
		}
		if ok {
			hit = cand
		}
	}
	return hit
}

// IsNonDominated reports whether the system's antichain is a non-dominated
// coterie: no coterie D ≠ C has every quorum of C containing a quorum of D
// (Garcia-Molina–Barbara). The classical characterization used here:
// C is ND iff every transversal of C contains a quorum, which for an
// antichain is equivalent to self-duality, Tr(C) = C.
func IsNonDominated(s *System) bool {
	min := MinimalQuorums(s)
	minSys, err := NewSystem(s.name+"-min", s.universe, min)
	if err != nil {
		return false
	}
	return equalQuorumLists(min, Transversals(minSys))
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
