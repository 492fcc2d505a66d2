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
//
// SolveSSQPP reads a subset-mass table its caller builds once per instance
// (SubsetMass) and records through the caller's obs.Rec, so the DP's spans
// stay under the worker of a parallel QPP sweep that ran it. RankOrder is
// the one rank order, shared with the SSQPP LP's class ranking.
package treedp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	// against adversarial capacity profiles. A rank visits at most 3^U
	// pairs, so no solve with EstimatedOps within it can exhaust it.
	DefaultOpsBudget = int64(1) << 29

	// capTol mirrors the placement package's capacity tolerance so DP
	// placements are accepted by Instance.Feasible.
	capTol = 1e-9
)

// ErrBudget is returned when a solve exceeds its transition budget.
var ErrBudget = errors.New("treedp: ops budget exhausted")

// ErrInfeasible is returned when no capacity-respecting placement exists.
var ErrInfeasible = errors.New("treedp: no capacity-respecting placement exists")

// step is one entry of a solve's traceback log: at rank, placing subset on
// that rank's node lowered target's cost. A solve appends one step per
// improvement, in rank order.
type step struct {
	rank   int32
	target uint32
	subset uint32
}

// SolveSSQPP solves the single-source problem exactly: it returns an
// element→node map f minimizing Δ_f = Σ_Q p(Q)·max_{u∈Q} dist[f(u)] subject
// to Σ_{f(u)=v} loads[u] ≤ caps[v], together with the optimal objective.
// dist[v] is the distance from the (implicit) source to node v; caps and
// loads use the placement package's conventions, and a negative, NaN or
// infinite capacity is an error, as in placement.NewInstance. The universe
// is len(loads), and mass is its subset-mass table (SubsetMass), which a
// caller solving many sources builds once. rec routes the solve's span and
// counters.
//
// The DP scans nodes in rank order (RankOrder, the LP's order) and tracks,
// per subset S of the universe, the cheapest way to place exactly S on the
// scanned prefix: placing a subset A on the current node completes the
// quorums inside S∪A that were incomplete in S, each paying its probability
// times the current distance — exactly the objective, since a quorum's max
// delay is the distance of its farthest (latest-scanned) element. Only
// subsets within the node's capacity are relaxed, each against the finite
// states disjoint from it, so a node that admits single elements only costs
// U·2^(U−1) pairs instead of 3^U. Updates are buffered per node so two
// subsets can never stack onto the same node, and the scan stops as soon as
// no remaining node can beat the best complete placement: any future
// completion pays at least dp[S] + (P(all) − P(S))·d_t through some current
// state S. Every improvement appends a step to a flat log, and the
// placement is traced back through it from the full state.
func SolveSSQPP(rec obs.Rec, dist, caps, loads, mass []float64) ([]int, float64, error) {
	return solveSSQPP(rec, dist, caps, loads, mass, DefaultOpsBudget)
}

func solveSSQPP(rec obs.Rec, dist, caps, loads, mass []float64, budget int64) ([]int, float64, error) {
	n, nU := len(dist), len(loads)
	switch {
	case n == 0:
		return nil, 0, fmt.Errorf("treedp: empty network")
	case nU > MaxUniverse:
		return nil, 0, fmt.Errorf("treedp: universe %d exceeds DP limit %d", nU, MaxUniverse)
	case len(caps) != n:
		return nil, 0, fmt.Errorf("treedp: %d capacities for %d nodes", len(caps), n)
	case len(mass) != 1<<nU:
		return nil, 0, fmt.Errorf("treedp: subset-mass table of %d entries for universe %d", len(mass), nU)
	}
	for v, d := range dist {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, 0, fmt.Errorf("treedp: distance of node %d is %v", v, d)
		}
	}
	if err := checkCaps(caps); err != nil {
		return nil, 0, err
	}
	sp := rec.Start("treedp.ssqpp")
	defer sp.End()

	size := 1 << nU
	full := size - 1

	// mass[m] = Σ p(Q) over quorums Q ⊆ m; loadOf[m] = Σ_{u∈m} loads[u].
	fullP := mass[full]
	loadOf := make([]float64, size)
	for m := 1; m < size; m++ {
		low := m & -m
		loadOf[m] = loadOf[m^low] + loads[bits.TrailingZeros32(uint32(low))]
	}
	order := make([]int, n)
	RankOrder(order, dist, caps)

	inf := math.Inf(1)
	dp := make([]float64, size)
	next := make([]float64, size)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0

	var steps []step
	var ops int64
	ranks := 0
	for t := 0; t < n; t++ {
		v := order[t]
		dt := dist[v]
		// Exact early cut: every not-yet-found completion passes through
		// some current state S and pays its remaining probability mass at
		// distance ≥ dt, so once the best full placement undercuts every
		// dp[S] + (fullP − mass[S])·dt the scan cannot improve.
		if best := dp[full]; !math.IsInf(best, 1) {
			improvable := false
			for S := 0; S < full; S++ {
				if dp[S]+(fullP-mass[S])*dt < best {
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
					if c := base + (mass[nS]-mass[S])*dt; c < next[nS] {
						next[nS] = c
						steps = append(steps, step{rank: int32(t), target: uint32(nS), subset: uint32(A)})
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
	}
	rec.Count("treedp.dp_ops", ops)
	rec.Count("treedp.dp_ranks", int64(ranks))

	if math.IsInf(dp[full], 1) {
		return nil, 0, fmt.Errorf("%w: universe load %v over %d nodes", ErrInfeasible, loadOf[full], n)
	}
	// A state's cost after rank t is its latest improvement at a rank ≤ t,
	// and a step at rank t extends its source state's cost after rank t−1.
	// So the walk takes, for the current target, the latest step below the
	// previous step's rank, and continues from the state the step extended.
	f := make([]int, nU)
	target, below := uint32(full), int32(n)
	for i := len(steps) - 1; i >= 0 && target != 0; i-- {
		if s := steps[i]; s.target == target && s.rank < below {
			for a := s.subset; a != 0; a &= a - 1 {
				f[bits.TrailingZeros32(a)] = order[s.rank]
			}
			target, below = target&^s.subset, s.rank
		}
	}
	return f, dp[full], nil
}

// RankOrder fills order with the nodes 0…len(order)−1 sorted by distance,
// then capacity, then id: the rank order of a source whose node distances
// are dist. Among equidistant nodes the capacity tie-break groups equal
// capacities, which the SSQPP LP merges into one class; the id makes the
// order total, so the ranks do not depend on the sort algorithm.
func RankOrder(order []int, dist, caps []float64) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(dist[a], dist[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(caps[a], caps[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// checkCaps rejects what placement.NewInstance rejects: a negative, NaN or
// infinite capacity.
func checkCaps(caps []float64) error {
	for v, c := range caps {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("treedp: capacity of node %d is %v", v, c)
		}
	}
	return nil
}

// SubsetMass returns the subset-mass table of sys under strat: mass[m] =
// Σ p(Q) over the quorums Q ⊆ m, for every mask m over the universe, by the
// subset-sum zeta transform in O(U·2^U). It returns nil past MaxUniverse,
// where SolveSSQPP refuses the universe. The placement package's QPP sweep
// builds the table once, for both the DP and its placement scoring.
func SubsetMass(sys *quorum.System, strat quorum.Strategy) []float64 {
	nU := sys.Universe()
	if nU > MaxUniverse {
		return nil
	}
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
