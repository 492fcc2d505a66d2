package placement

import (
	"fmt"
	"math"

	"quorumplace/internal/gap"
	"quorumplace/internal/obs"
)

// This file implements the total-delay objective of §5 (Theorems 1.4 and
// 5.1). Because Γ_f(v) = Σ_u load(u)·d(v, f(u)) decomposes per element, the
// problem is exactly a Generalized Assignment Problem:
//
//	jobs     = elements u, with machine-independent size load(u)
//	machines = nodes v, with capacity cap(v)
//	cost     = load(u) · Avg_{v'} d(v', v)   (rate-weighted when set)
//
// Solving the GAP LP and rounding with Shmoys–Tardos yields a placement
// whose average total-delay is at most the optimum over capacity-respecting
// placements, with load_f(v) ≤ 2·cap(v). Pairs with load(u) > cap(v) are
// forbidden (mirroring constraint (13)); an optimal capacity-respecting
// placement never uses them, so the LP bound is unaffected, and forbidding
// them is what caps the rounded load at cap + p^max ≤ 2·cap.

// TotalDelayResult is the outcome of SolveTotalDelay.
type TotalDelayResult struct {
	Placement Placement
	AvgDelay  float64 // Avg_v Γ_f(v) of the returned placement
	LPBound   float64 // GAP LP optimum ≤ optimal capacity-respecting delay
}

// TotalDelayGAP builds the Theorem 5.1 GAP over the given universe elements
// (nil means the whole universe, in order). Job i is element u = elems[i]
// and machine v is node v: assigning u to v costs load(u)·AvgDistToNode(v)
// and consumes load(u) of cap(v). The pair is forbidden (+Inf load) when
// load(u) > cap(v)·(1+capTol). Capacities are a copy of the instance's.
// Elements must lie in the universe; callers that take element lists from
// outside validate them first.
func (ins *Instance) TotalDelayGAP(elems []int) *gap.Instance {
	if elems == nil {
		elems = make([]int, ins.Sys.Universe())
		for u := range elems {
			elems[u] = u
		}
	}
	n := ins.M.N()
	g := &gap.Instance{
		Cost: make([][]float64, n),
		Load: make([][]float64, n),
		T:    append([]float64(nil), ins.Cap...),
	}
	for v := 0; v < n; v++ {
		avgDist := ins.AvgDistToNode(v)
		g.Cost[v] = make([]float64, len(elems))
		g.Load[v] = make([]float64, len(elems))
		for i, u := range elems {
			l := ins.loads[u]
			g.Cost[v][i] = l * avgDist
			if l > ins.Cap[v]*(1+capTol) {
				g.Load[v][i] = math.Inf(1)
			} else {
				g.Load[v][i] = l
			}
		}
	}
	return g
}

// SolveTotalDelay runs the Theorem 5.1 algorithm: one cold solve of the
// TotalDelayGAP relaxation, rounded by Shmoys–Tardos.
func SolveTotalDelay(ins *Instance) (*TotalDelayResult, error) {
	sp := obs.Start("placement.totaldelay")
	defer sp.End()
	g := ins.TotalDelayGAP(nil)
	sk, err := gap.NewSkeleton(g)
	if err != nil {
		return nil, fmt.Errorf("placement: total-delay GAP: %w", err)
	}
	y, lpObj, _, err := sk.SolveLP()
	if err != nil {
		return nil, fmt.Errorf("placement: total-delay GAP: %w", err)
	}
	assign, _, err := gap.Round(g, y)
	if err != nil {
		return nil, fmt.Errorf("placement: total-delay GAP: %w", err)
	}
	pl := NewPlacement(assign)
	return &TotalDelayResult{
		Placement: pl,
		AvgDelay:  ins.AvgTotalDelay(pl),
		LPBound:   lpObj,
	}, nil
}
