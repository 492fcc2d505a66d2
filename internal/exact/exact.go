// Package exact provides exponential-time exact solvers for the quorum
// placement problems, used as ground truth when measuring the approximation
// ratios of the polynomial-time algorithms on small instances.
//
// Both solvers branch over element→node assignments with capacity pruning
// and an admissible lower bound: the delay objectives are monotone in the
// partial assignment (adding an element can only raise a quorum's max
// distance), so the current partial objective prunes safely.
package exact

import (
	"fmt"
	"math"

	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
)

// Limits protecting against accidentally launching an infeasible search.
const (
	maxUniverse = 12
	maxNodes    = 16
)

func checkSize(ins *placement.Instance) error {
	if u := ins.Sys.Universe(); u > maxUniverse {
		return fmt.Errorf("exact: universe %d exceeds limit %d", u, maxUniverse)
	}
	if n := ins.M.N(); n > maxNodes {
		return fmt.Errorf("exact: %d nodes exceed limit %d", n, maxNodes)
	}
	return nil
}

// SolveSSQPP finds a placement minimizing Δ_f(v0) subject to
// load_f(v) ≤ cap(v), by branch and bound. It returns an error if the
// instance is too large or no capacity-respecting placement exists.
func SolveSSQPP(ins *placement.Instance, v0 int) (placement.Placement, float64, error) {
	if err := checkSize(ins); err != nil {
		return placement.Placement{}, 0, err
	}
	sp := obs.Start("exact.ssqpp")
	defer sp.End()
	row := ins.M.Row(v0)
	obj := func(f []int) float64 {
		p := placement.NewPlacement(f)
		return ins.MaxDelayFrom(v0, p)
	}
	// Partial lower bound: expected max over only the assigned elements.
	lower := func(f []int, assigned int) float64 {
		sum := 0.0
		for qi := 0; qi < ins.Sys.NumQuorums(); qi++ {
			pq := ins.Strat.P(qi)
			if pq == 0 {
				continue
			}
			max := 0.0
			for _, u := range ins.Sys.Quorum(qi) {
				if u < assigned {
					if d := row[f[u]]; d > max {
						max = d
					}
				}
			}
			sum += pq * max
		}
		return sum
	}
	f, val, err := branchAndBound(ins, obj, lower)
	if err != nil {
		return placement.Placement{}, 0, err
	}
	return placement.NewPlacement(f), val, nil
}

// SolveQPP finds a placement minimizing Avg_v Δ_f(v), weighted by client
// rates when set, subject to load_f(v) ≤ cap(v), by branch and bound.
func SolveQPP(ins *placement.Instance) (placement.Placement, float64, error) {
	if err := checkSize(ins); err != nil {
		return placement.Placement{}, 0, err
	}
	sp := obs.Start("exact.qpp")
	defer sp.End()
	obj := func(f []int) float64 {
		return ins.AvgMaxDelay(placement.NewPlacement(f))
	}
	lower := func(f []int, assigned int) float64 {
		// Average over clients of the partial expected max, weighted by
		// client rates like the objective (w = 1 when Rates is nil).
		n := ins.M.N()
		sum, wsum := 0.0, 0.0
		for v := 0; v < n; v++ {
			w := 1.0
			if ins.Rates != nil {
				w = ins.Rates[v]
			}
			row := ins.M.Row(v)
			dv := 0.0
			for qi := 0; qi < ins.Sys.NumQuorums(); qi++ {
				pq := ins.Strat.P(qi)
				if pq == 0 {
					continue
				}
				max := 0.0
				for _, u := range ins.Sys.Quorum(qi) {
					if u < assigned {
						if d := row[f[u]]; d > max {
							max = d
						}
					}
				}
				dv += pq * max
			}
			sum += w * dv
			wsum += w
		}
		return sum / wsum
	}
	f, val, err := branchAndBound(ins, obj, lower)
	if err != nil {
		return placement.Placement{}, 0, err
	}
	return placement.NewPlacement(f), val, nil
}

// SolveTotalDelay finds a placement minimizing Avg_v Γ_f(v), weighted by
// client rates when set, subject to capacities. Γ decomposes per element,
// so the partial objective is an exact prefix sum and pruning is tight.
func SolveTotalDelay(ins *placement.Instance) (placement.Placement, float64, error) {
	if err := checkSize(ins); err != nil {
		return placement.Placement{}, 0, err
	}
	sp := obs.Start("exact.total_delay")
	defer sp.End()
	obj := func(f []int) float64 {
		return ins.AvgTotalDelay(placement.NewPlacement(f))
	}
	avgDist := make([]float64, ins.M.N())
	for v := range avgDist {
		avgDist[v] = ins.AvgDistToNode(v)
	}
	lower := func(f []int, assigned int) float64 {
		sum := 0.0
		for u := 0; u < assigned; u++ {
			sum += ins.Load(u) * avgDist[f[u]]
		}
		return sum
	}
	f, val, err := branchAndBound(ins, obj, lower)
	if err != nil {
		return placement.Placement{}, 0, err
	}
	return placement.NewPlacement(f), val, nil
}

// branchAndBound assigns elements 0..|U|-1 to nodes depth-first, pruning on
// capacity and on the admissible partial bound.
func branchAndBound(
	ins *placement.Instance,
	obj func(f []int) float64,
	lower func(f []int, assigned int) float64,
) ([]int, float64, error) {
	nU := ins.Sys.Universe()
	n := ins.M.N()
	f := make([]int, nU)
	best := math.Inf(1)
	var bestF []int
	remaining := append([]float64(nil), ins.Cap...)
	const tol = 1e-9
	var nodes int64
	var rec func(u int)
	rec = func(u int) {
		nodes++
		if u == nU {
			if val := obj(f); val < best {
				best = val
				bestF = append([]int(nil), f...)
			}
			return
		}
		load := ins.Load(u)
		for v := 0; v < n; v++ {
			if remaining[v]+tol < load {
				continue
			}
			f[u] = v
			if lower(f, u+1) < best-tol {
				remaining[v] -= load
				rec(u + 1)
				remaining[v] += load
			}
		}
	}
	rec(0)
	obs.Count("exact.bb_nodes", nodes)
	if bestF == nil {
		return nil, 0, fmt.Errorf("exact: no capacity-respecting placement exists")
	}
	return bestF, best, nil
}
