package treedp

import (
	"fmt"
	"math"

	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/quorum"
)

// allSourcesLimit: below this many vertices the QPP driver runs the exact
// SSQPP DP from every vertex, matching the paper's try-all-sources
// reduction (Theorem 3.3) exactly. Above it, candidate sources are the
// rate-weighted 1-median and its tree neighborhood — the relay
// decomposition (Eq. 8) is minimized around the median of the client
// distribution, so the handful of candidates costs a near-linear total
// instead of n quadratic-ish solves.
const (
	allSourcesLimit    = 64
	maxMedianNeighbors = 16
)

// Result is the outcome of SolveQPP on a tree.
type Result struct {
	F           []int   // element → node map of the winning placement
	AvgMaxDelay float64 // rate-weighted Avg_v Δ_f(v), evaluated exactly
	BestV0      int     // the source whose exact SSQPP solution won
	SourceDelay float64 // Δ_f(BestV0), the optimal single-source delay
	Candidates  []int   // sources tried
}

// SolveQPP solves the Quorum Placement Problem on a tree without ever
// materializing an n² metric: for each candidate source it computes the
// O(n) tree distance vector, solves SSQPP exactly with the subset DP, and
// evaluates the true rate-weighted average max-delay of the resulting
// placement through per-quorum diametral pairs (evalAvgMaxDelay). rates may
// be nil for uniform clients. Capacities must be finite and non-negative, as
// placement.NewInstance requires, and the universe at most MaxUniverse.
func SolveQPP(g *graph.Graph, caps []float64, sys *quorum.System, strat quorum.Strategy, rates []float64) (*Result, error) {
	n := g.N()
	if !g.IsTree() {
		return nil, fmt.Errorf("treedp: graph with %d vertices and %d edges is not a tree", n, g.M())
	}
	if len(caps) != n {
		return nil, fmt.Errorf("treedp: %d capacities for %d nodes", len(caps), n)
	}
	if err := checkCaps(caps); err != nil {
		return nil, err
	}
	if nU := sys.Universe(); nU > MaxUniverse {
		return nil, fmt.Errorf("treedp: universe %d exceeds DP limit %d", nU, MaxUniverse)
	}
	if rates != nil {
		if len(rates) != n {
			return nil, fmt.Errorf("treedp: %d rates for %d nodes", len(rates), n)
		}
		sum := 0.0
		for v, r := range rates {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return nil, fmt.Errorf("treedp: rate of node %d is %v", v, r)
			}
			sum += r
		}
		if sum <= 0 {
			return nil, fmt.Errorf("treedp: rates sum to zero")
		}
	}
	loads, err := sys.Loads(strat)
	if err != nil {
		return nil, fmt.Errorf("treedp: %w", err)
	}
	sp := obs.Start("treedp.qpp")
	defer sp.End()
	obs.Count("treedp.nodes", int64(n))

	cands := candidateSources(g, rates)
	obs.Gauge("treedp.candidates", float64(len(cands)))
	mass := SubsetMass(sys, strat)
	dist := make([]float64, n)
	var stack []int
	var best *Result
	var firstErr error
	for _, v0 := range cands {
		stack = distsFrom(g, v0, dist, stack)
		f, d0, err := SolveSSQPP(obs.Rec{}, dist, caps, loads, mass)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("treedp: source %d: %w", v0, err)
			}
			continue
		}
		avg := evalAvgMaxDelay(g, f, sys, strat, rates)
		if best == nil || avg < best.AvgMaxDelay || (avg == best.AvgMaxDelay && v0 < best.BestV0) {
			best = &Result{F: f, AvgMaxDelay: avg, BestV0: v0, SourceDelay: d0}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("treedp: SSQPP failed for every candidate source: %w", firstErr)
	}
	best.Candidates = cands
	return best, nil
}

// candidateSources returns the sources the QPP driver tries: every vertex
// on small trees, otherwise the rate-weighted 1-median and its BFS
// neighborhood of up to maxMedianNeighbors further vertices. The
// neighborhood (rather than just direct neighbors) matters on sparse trees,
// where the median's degree is a small constant: the hop-ordered frontier
// fills the candidate budget deterministically.
func candidateSources(g *graph.Graph, rates []float64) []int {
	n := g.N()
	if n <= allSourcesLimit {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	med := weightedMedian(g, rates)
	cands := []int{med}
	seen := make([]bool, n)
	seen[med] = true
	for head := 0; head < len(cands) && len(cands) < 1+maxMedianNeighbors; head++ {
		for _, e := range g.Neighbors(cands[head]) {
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			cands = append(cands, e.To)
			if len(cands) == 1+maxMedianNeighbors {
				break
			}
		}
	}
	return cands
}

// evalAvgMaxDelay computes the QPP objective Avg_v Δ_f(v) exactly on the
// tree in O(Q·n): for each quorum, the farthest placed replica from any
// client v is one of the two endpoints (a, b) of the replica set's diameter
// — the standard double-scan property of trees — so
// max_{u∈Q} d(v, f(u)) = max(d(v,a), d(v,b)), and one distance vector per
// distinct endpoint suffices for all n clients.
func evalAvgMaxDelay(g *graph.Graph, f []int, sys *quorum.System, strat quorum.Strategy, rates []float64) float64 {
	n := g.N()
	rows := make(map[int][]float64, 2*sys.NumQuorums())
	var stack []int
	row := func(v int) []float64 {
		if r, ok := rows[v]; ok {
			return r
		}
		r := make([]float64, n)
		stack = distsFrom(g, v, r, stack)
		rows[v] = r
		return r
	}
	members := make([]int, 0, 8)
	total := 0.0
	for q := 0; q < sys.NumQuorums(); q++ {
		pq := strat.P(q)
		if pq == 0 {
			continue
		}
		members = members[:0]
		for _, u := range sys.Quorum(q) {
			members = append(members, f[u])
		}
		a := farthestMember(members, row(members[0]))
		b := farthestMember(members, row(a))
		ra, rb := row(a), row(b)
		acc := 0.0
		if rates == nil {
			for v := 0; v < n; v++ {
				acc += math.Max(ra[v], rb[v])
			}
		} else {
			for v := 0; v < n; v++ {
				acc += rates[v] * math.Max(ra[v], rb[v])
			}
		}
		total += pq * acc
	}
	if rates == nil {
		return total / float64(n)
	}
	wsum := 0.0
	for _, r := range rates {
		wsum += r
	}
	return total / wsum
}
