// Package treedp provides exact fast paths for the placement problems on
// large instances. The core is a subset dynamic program that solves the
// Single-Source Quorum Placement Problem (Problem 3.2) to optimality in
// O(n·3^U) time: near-linear in the network size n for a fixed logical
// universe U, which is the regime the paper's quorum systems live in
// (universes of a handful to a couple dozen elements over networks of
// thousands to millions of nodes).
//
// SSQPP is NP-hard even on a path (Theorem 3.6), so no algorithm polynomial
// in both n and U exists unless P=NP; the DP isolates the exponential cost
// in U, where it is tiny, instead of in n, where the LP pipeline pays a
// super-linear price. On tree metrics the companion driver (qpp.go) solves
// the full QPP without ever materializing an n² metric: tree distance
// vectors are O(n) scans, and the average max-delay objective is evaluated
// exactly through per-quorum diametral pairs.
package treedp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"quorumplace/internal/obs"
	"quorumplace/internal/quorum"
)

const (
	// MaxUniverse caps the DP state space: 2^U states, up to 3^U
	// (state, subset) transition pairs per node.
	MaxUniverse = 16

	// DefaultOpsBudget bounds the transition pairs one solve may examine
	// (treedp.dp_ops: one per fitting subset and state disjoint from it
	// inside the reachable elements) before aborting with ErrBudget. The
	// early cut below usually stops the scan after the nearest feasible
	// ranks, so real solves come nowhere near it; the budget is a guard
	// against adversarial capacity profiles.
	DefaultOpsBudget = int64(1) << 29

	// capTol mirrors the placement package's capacity tolerance so DP
	// placements are accepted by Instance.Feasible.
	capTol = 1e-9
)

// ErrBudget is returned when a solve exceeds its transition budget.
var ErrBudget = errors.New("treedp: ops budget exhausted")

// ErrInfeasible is returned when no capacity-respecting placement exists.
var ErrInfeasible = errors.New("treedp: no capacity-respecting placement exists")

// chain is an immutable traceback node. Each dp improvement freezes its own
// history, so a state's chain is always consistent with its cost even
// though predecessor states keep improving afterwards.
type chain struct {
	prev   *chain
	node   int32
	subset uint32
}

// SolveSSQPP solves the single-source problem exactly: it returns an
// element→node map f minimizing Δ_f = Σ_Q p(Q)·max_{u∈Q} dist[f(u)] subject
// to Σ_{f(u)=v} loads[u] ≤ caps[v], together with the optimal objective.
// dist[v] is the distance from the (implicit) source to node v; caps and
// loads use the placement package's conventions.
//
// The DP scans nodes by increasing distance (capacity and id break ties,
// mirroring the LP's rank order) and tracks, per subset S of the universe,
// the cheapest way to place exactly S on the scanned prefix: placing a
// subset A on the current node completes the quorums inside S∪A that were
// incomplete in S, each paying its probability times the current distance —
// exactly the objective, since a quorum's max delay is the distance of its
// farthest (latest-scanned) element. Only subsets within the node's capacity
// are relaxed, each against the finite states disjoint from it, so a node
// that admits single elements only costs U·2^(U−1) pairs instead of 3^U.
// Updates are buffered per node so two subsets can never stack onto the
// same node, and the scan stops as soon as no remaining node can beat the
// best complete placement: any future completion pays at least
// dp[S] + (P(all) − P(S))·d_t through some current state S.
func SolveSSQPP(dist, caps, loads []float64, sys *quorum.System, strat quorum.Strategy) ([]int, float64, error) {
	return solveSSQPP(dist, caps, loads, sys, strat, DefaultOpsBudget)
}

func solveSSQPP(dist, caps, loads []float64, sys *quorum.System, strat quorum.Strategy, budget int64) ([]int, float64, error) {
	n := len(dist)
	nU := sys.Universe()
	switch {
	case n == 0:
		return nil, 0, fmt.Errorf("treedp: empty network")
	case nU > MaxUniverse:
		return nil, 0, fmt.Errorf("treedp: universe %d exceeds DP limit %d", nU, MaxUniverse)
	case len(caps) != n:
		return nil, 0, fmt.Errorf("treedp: %d capacities for %d nodes", len(caps), n)
	case len(loads) != nU:
		return nil, 0, fmt.Errorf("treedp: %d loads for universe %d", len(loads), nU)
	}
	for v, d := range dist {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, 0, fmt.Errorf("treedp: distance of node %d is %v", v, d)
		}
	}
	sp := obs.Start("treedp.ssqpp")
	defer sp.End()

	size := 1 << nU
	full := size - 1

	// probOf[m] = Σ p(Q) over quorums Q ⊆ m; loadOf[m] = Σ_{u∈m} loads[u].
	probOf := SubsetMass(sys, strat)
	fullP := probOf[full]
	loadOf := make([]float64, size)
	for m := 1; m < size; m++ {
		low := m & -m
		loadOf[m] = loadOf[m^low] + loads[bits.TrailingZeros32(uint32(low))]
	}

	// Rank order (distance, capacity, id) — the sourceClasses tie-break.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		oi, oj := order[i], order[j]
		if dist[oi] != dist[oj] {
			return dist[oi] < dist[oj]
		}
		if caps[oi] != caps[oj] {
			return caps[oi] < caps[oj]
		}
		return oi < oj
	})

	inf := math.Inf(1)
	dp := make([]float64, size)
	next := make([]float64, size)
	trace := make([]*chain, size)
	nextTrace := make([]*chain, size)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0

	var ops int64
	ranks := 0
	for t := 0; t < n; t++ {
		v := order[t]
		dt := dist[v]
		// Exact early cut: every not-yet-found completion passes through
		// some current state S and pays its remaining probability mass at
		// distance ≥ dt, so once the best full placement undercuts every
		// dp[S] + (fullP − probOf[S])·dt the scan cannot improve.
		if best := dp[full]; !math.IsInf(best, 1) {
			improvable := false
			for S := 0; S < full; S++ {
				if dp[S]+(fullP-probOf[S])*dt < best {
					improvable = true
					break
				}
			}
			if !improvable {
				break
			}
		}
		ranks++
		limit := caps[v]*(1+capTol) + capTol
		copy(next, dp)
		copy(nextTrace, trace)
		// Subset-major relaxation: each subset A that fits this node, in
		// descending order, extends every finite state S disjoint from it.
		// Every finite state lies inside reach, so S ranges over the
		// submasks of reach \ A. A target T = S|A meets its candidates in
		// descending A = T \ S, which is ascending S, so ties resolve as in
		// a state-major scan.
		reach := 0
		for S, c := range dp {
			if !math.IsInf(c, 1) {
				reach |= S
			}
		}
		for A := full; A != 0; A-- {
			if loadOf[A] > limit {
				continue
			}
			free := reach &^ A
			for S := free; ; S = (S - 1) & free {
				ops++
				if base := dp[S]; !math.IsInf(base, 1) {
					nS := S | A
					if c := base + (probOf[nS]-probOf[S])*dt; c < next[nS] {
						next[nS] = c
						nextTrace[nS] = &chain{prev: trace[S], node: int32(v), subset: uint32(A)}
					}
				}
				if S == 0 {
					break
				}
			}
		}
		if ops > budget {
			return nil, 0, fmt.Errorf("%w: %d transitions at rank %d/%d (universe %d)", ErrBudget, ops, t, n, nU)
		}
		dp, next = next, dp
		trace, nextTrace = nextTrace, trace
	}
	obs.Count("treedp.dp_ops", ops)
	obs.Gauge("treedp.dp_ranks", float64(ranks))

	if math.IsInf(dp[full], 1) {
		return nil, 0, fmt.Errorf("%w: universe load %v over %d nodes", ErrInfeasible, loadOf[full], n)
	}
	f := make([]int, nU)
	for c := trace[full]; c != nil; c = c.prev {
		for a := c.subset; a != 0; a &= a - 1 {
			f[bits.TrailingZeros32(a)] = int(c.node)
		}
	}
	return f, dp[full], nil
}

// SubsetMass returns the subset-mass table of sys under strat: mass[m] =
// Σ p(Q) over the quorums Q ⊆ m, for every mask m over the universe, by the
// subset-sum zeta transform in O(U·2^U). The universe must be at most
// MaxUniverse. The QPP sweep scores placements from the same table.
func SubsetMass(sys *quorum.System, strat quorum.Strategy) []float64 {
	nU := sys.Universe()
	size := 1 << nU
	mass := make([]float64, size)
	for q := 0; q < sys.NumQuorums(); q++ {
		mask := 0
		for _, u := range sys.Quorum(q) {
			mask |= 1 << u
		}
		mass[mask] += strat.P(q)
	}
	for b := 0; b < nU; b++ {
		bit := 1 << b
		for m := 0; m < size; m++ {
			if m&bit != 0 {
				mass[m] += mass[m^bit]
			}
		}
	}
	return mass
}

// EstimatedOps returns the worst-case transition count n·3^U of a solve, the
// quantity callers gate auto-selection on.
func EstimatedOps(n, universe int) float64 {
	return float64(n) * math.Pow(3, float64(universe))
}
