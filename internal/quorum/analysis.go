package quorum

import (
	"fmt"
	"math"
	"math/bits"
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

// maxMaskTests is the work budget of one exact analysis, a hitting-set
// search or the failure-pattern enumeration, counted in quorum-mask tests:
// about two seconds on a 2-vCPU x86 box. Counting work rather than time
// makes an analysis that passes it fail the same way on every machine.
const maxMaskTests = 1 << 30

var errBudget = fmt.Errorf("analysis needs more than maxMaskTests = %d quorum-mask tests", maxMaskTests)

// FailureProbability returns the probability that no quorum is fully alive
// when every element fails independently with probability p — the system's
// failure probability F_p(Q). It enumerates all 2^n failure patterns, so
// it requires universe ≤ 20 and 2^n × quorums ≤ maxMaskTests.
func FailureProbability(s *System, p float64) (float64, error) {
	n := s.universe
	if n > maxExactAvailability {
		return 0, fmt.Errorf("quorum: universe %d exceeds exact availability limit %d", n, maxExactAvailability)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("quorum: failure probability %v outside [0,1]", p)
	}
	masks := s.quorumMasks()
	if len(masks) > maxMaskTests>>n { // each pattern tests at most every quorum
		return 0, fmt.Errorf("quorum: %s: %w", s.name, errBudget)
	}
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
// quorum to kill the system. The hitting-set search keeps the smallest
// transversal found and looks only for smaller ones; it fails past 64
// elements or past its budget.
func Resilience(s *System) (int, error) {
	best := s.universe // the whole universe hits every quorum
	err := s.searchTransversals(best, func(t uint64) int {
		best = popcount(t)
		return best - 1
	})
	if err != nil {
		return 0, err
	}
	return best - 1, nil
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

func popcount(x uint64) int { return bits.OnesCount64(x) }
