package quorum

import (
	"fmt"
	"math"
)

// This file provides the classical quality measures for quorum systems that
// the paper's introduction builds on (load, availability, resilience; see
// Naor & Wool, "The load, capacity, and availability of quorum systems" —
// reference [18] of the paper). The placement algorithms take the quorum
// system as given; these measures are what one optimizes when *choosing*
// the input system, and the evaluation uses them to characterize the
// systems placed.

// maxExactAvailability bounds the exact 2^n failure-set enumeration.
const maxExactAvailability = 20

// FailureProbability returns the probability that no quorum is fully alive
// when every element fails independently with probability p — the system's
// failure probability F_p(Q). It enumerates all 2^n failure patterns, so
// it requires universe ≤ 20.
func FailureProbability(s *System, p float64) (float64, error) {
	n := s.universe
	if n > maxExactAvailability {
		return 0, fmt.Errorf("quorum: universe %d exceeds exact availability limit %d", n, maxExactAvailability)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("quorum: failure probability %v outside [0,1]", p)
	}
	masks := s.quorumMasks()
	total := 0.0
	for alive := 0; alive < 1<<uint(n); alive++ {
		survives := false
		for _, qm := range masks {
			if uint64(alive)&qm == qm {
				survives = true
				break
			}
		}
		if survives {
			continue
		}
		k := popcount(uint64(alive))
		total += math.Pow(1-p, float64(k)) * math.Pow(p, float64(n-k))
	}
	return total, nil
}

// Resilience returns the largest f such that every set of f element
// failures still leaves some quorum fully alive. Equivalently it is
// (minimum hitting set of the quorums) − 1: the adversary must hit every
// quorum to kill the system. Computed by branch and bound over elements,
// practical for the moderate systems in this library.
func Resilience(s *System) int {
	if s.universe > 63 {
		// The branch and bound uses uint64 masks.
		panic(fmt.Sprintf("quorum: resilience computation limited to 63 elements, got %d", s.universe))
	}
	masks := s.quorumMasks()
	best := s.universe + 1 // upper bound on the hitting set size
	var rec func(hit uint64, count int, from int)
	rec = func(hit uint64, count int, from int) {
		if count >= best {
			return
		}
		// Find the first quorum not yet hit.
		var missing uint64
		found := false
		for _, qm := range masks {
			if qm&hit == 0 {
				missing = qm
				found = true
				break
			}
		}
		if !found {
			best = count
			return
		}
		// Branch on which element of the missing quorum to add.
		for u := 0; u < s.universe; u++ {
			if missing&(1<<uint(u)) != 0 {
				rec(hit|1<<uint(u), count+1, from)
			}
		}
	}
	rec(0, 0, 0)
	return best - 1
}

// MinQuorumSize returns c(S), the cardinality of the smallest quorum.
func MinQuorumSize(s *System) int {
	min := len(s.quorums[0])
	for _, q := range s.quorums[1:] {
		if len(q) < min {
			min = len(q)
		}
	}
	return min
}

// LoadLowerBound returns the Naor–Wool lower bound on the load of any
// access strategy: L(S) ≥ max(1/c(S), c(S)/n).
func LoadLowerBound(s *System) float64 {
	c := float64(MinQuorumSize(s))
	n := float64(s.universe)
	return math.Max(1/c, c/n)
}

// quorumMasks returns each quorum as a bitmask over elements. Only valid
// for universes ≤ 64.
func (s *System) quorumMasks() []uint64 {
	masks := make([]uint64, len(s.quorums))
	for i, q := range s.quorums {
		var m uint64
		for _, u := range q {
			m |= 1 << uint(u)
		}
		masks[i] = m
	}
	return masks
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
