package placement

import (
	"fmt"
	"math"

	"quorumplace/internal/gap"
	"quorumplace/internal/obs"
	"quorumplace/internal/treedp"
)

// This file implements the Single-Source Quorum Placement Problem
// (Problem 3.2): given a source v0 that issues all quorum accesses, find a
// placement minimizing Δ_f(v0) subject to node capacities. The problem is
// NP-hard (Theorem 3.6), so the solver follows §3.3: solve the LP
// relaxation (9)–(14), α-filter the fractional solution, and round it with
// the Shmoys–Tardos GAP theorem. The result has
//
//	Δ_f(v0) ≤ α/(α-1) · Z* ≤ α/(α-1) · Δ_{f*}(v0)
//
// with load_f(v) ≤ (α+1)·cap(v) at every node (Theorem 3.7; α=2 gives the
// 2-approximation with factor-3 load of Theorem 3.12).

// SSQPPResult is the outcome of SolveSSQPP.
type SSQPPResult struct {
	Placement Placement
	V0        int
	Alpha     float64
	Delay     float64 // Δ_f(v0) of the returned placement
	LPBound   float64 // Z*, a lower bound on the optimal capacity-respecting delay
}

// SolveSSQPP runs the Theorem 3.7 pipeline for source v0 and filtering
// parameter α > 1. It returns an error if the LP relaxation is infeasible
// (no capacity-respecting placement exists at all) or if α ≤ 1.
func SolveSSQPP(ins *Instance, v0 int, alpha float64) (*SSQPPResult, error) {
	return newSSQPPSolver(ins, obs.Rec{}).solve(v0, alpha)
}

// solve runs the Theorem 3.7 pipeline for one source against the solver's
// shared model skeleton. Callers solving many sources (the QPP reduction)
// reuse one solver so the LP skeleton and workspace are built only once.
func (sv *ssqppSolver) solve(v0 int, alpha float64) (*SSQPPResult, error) {
	ins := sv.ins
	if alpha <= 1 {
		return nil, fmt.Errorf("placement: filtering parameter alpha = %v must exceed 1", alpha)
	}
	if v0 < 0 || v0 >= ins.M.N() {
		return nil, fmt.Errorf("placement: source %d out of range [0,%d)", v0, ins.M.N())
	}
	// Exact fast path: large instances with small universes are solved to
	// optimality by the treedp subset DP (see exactdp.go). The gate is a
	// pure function of instance shape, so every source — and both the
	// sequential and parallel QPP sweeps — take the same branch. The gate
	// keeps the DP within its ops budget, so only infeasibility falls
	// through: the LP pipeline below then runs and reports with its own
	// diagnostics.
	if ins.exactDPAuto() {
		if sv.mass == nil {
			sv.mass = treedp.SubsetMass(ins.Sys, ins.Strat)
		}
		if res, err := solveSSQPPExactDP(ins, v0, alpha, sv.rec, sv.mass); err == nil {
			return res, nil
		}
	}
	sp := sv.rec.Start("placement.ssqpp")
	defer sp.End()
	frac, err := sv.solveLP(v0)
	if err != nil {
		return nil, err
	}
	fsp := sv.rec.Start("ssqpp.filter")
	xt := filter(frac.xu, alpha)
	fsp.End()
	pl, err := sv.roundFiltered(frac, xt, alpha)
	if err != nil {
		return nil, err
	}
	return &SSQPPResult{
		Placement: pl,
		V0:        v0,
		Alpha:     alpha,
		Delay:     ins.MaxDelayFrom(v0, pl),
		LPBound:   frac.obj,
	}, nil
}

// SSQPPLowerBound solves only the LP relaxation and returns Z*, a lower
// bound on Δ_{f*}(v0) over all capacity-respecting placements.
func SSQPPLowerBound(ins *Instance, v0 int) (float64, error) {
	frac, err := solveSSQPPLP(ins, v0)
	if err != nil {
		return 0, err
	}
	return frac.obj, nil
}

// ssqppFrac carries the fractional LP solution in node-rank space: index t
// refers to the t-th closest node to v0 (order[t]), with distance dist[t].
type ssqppFrac struct {
	order []int       // rank → node id
	dist  []float64   // rank → d(v0, node)
	xu    [][]float64 // xu[t][u], Σ_t xu[t][u] = 1
	obj   float64     // Z*
}

// solveSSQPPLP builds (or reuses) the instance's LP skeleton and solves the
// relaxation (9)–(14) for source v0. The model lives in ssqppmodel.go: the
// telescoped prefix formulation with constraint (13) enforced by fixing the
// forbidden x_{tu} to zero. One-shot callers go through this wrapper;
// multi-source callers hold an ssqppSolver to reuse the clone and workspace.
func solveSSQPPLP(ins *Instance, v0 int) (*ssqppFrac, error) {
	return newSSQPPSolver(ins, obs.Rec{}).solveLP(v0)
}

// filterTol treats tiny fractional masses as zero during filtering.
const filterTol = 1e-9

// filter applies the §3.3.1 filtering step with parameter α to the
// fractional assignment x[t][u] (columns sum to 1 over t): the filtered
// x̃_{tu} is the largest value with x̃_{tu} ≤ α·x_{tu} and Σ_{s≤t} x̃_{su} ≤ 1,
// which moves all mass to the closest ranks. Afterwards, x̃_{tu} > 0 implies
// Σ_{s<t} x_{su} < 1/α, the property behind the α/(α-1) distance bound of
// Claim 3.8 / Lemma 3.9.
func filter(x [][]float64, alpha float64) [][]float64 {
	if len(x) == 0 {
		return nil
	}
	n, nU := len(x), len(x[0])
	out := make([][]float64, n)
	for t := range out {
		out[t] = make([]float64, nU)
	}
	for u := 0; u < nU; u++ {
		cum := 0.0
		for t := 0; t < n && cum < 1-filterTol; t++ {
			if x[t][u] <= filterTol {
				continue
			}
			v := alpha * x[t][u]
			if v > 1-cum {
				v = 1 - cum
			}
			out[t][u] = v
			cum += v
		}
	}
	return out
}

// roundFiltered interprets the filtered solution as a fractional GAP
// solution (machines = nodes with capacity α·cap, jobs = elements, cost of
// element u on rank t = d_t) and applies Shmoys–Tardos rounding. The
// resulting load is at most α·cap(v) + max load ≤ (α+1)·cap(v). The
// rounding flow runs on the solver's gap workspace so repeated per-source
// roundings reuse the network scratch.
func (sv *ssqppSolver) roundFiltered(frac *ssqppFrac, xt [][]float64, alpha float64) (Placement, error) {
	sp := sv.rec.Start("ssqpp.round")
	defer sp.End()
	ins := sv.ins
	n := ins.M.N()
	nU := ins.Sys.Universe()
	g := &gap.Instance{
		Cost: make([][]float64, n),
		Load: make([][]float64, n),
		T:    make([]float64, n),
	}
	for t := 0; t < n; t++ {
		g.Cost[t] = make([]float64, nU)
		g.Load[t] = make([]float64, nU)
		g.T[t] = alpha * ins.Cap[frac.order[t]]
		for u := 0; u < nU; u++ {
			g.Cost[t][u] = frac.dist[t]
			if xt[t][u] > filterTol {
				g.Load[t][u] = ins.loads[u]
			} else {
				g.Load[t][u] = math.Inf(1)
			}
		}
	}
	// Renormalize columns exactly to 1 (filtering guarantees ≈1).
	for u := 0; u < nU; u++ {
		sum := 0.0
		for t := 0; t < n; t++ {
			sum += xt[t][u]
		}
		if math.Abs(sum-1) > 1e-6 {
			return Placement{}, fmt.Errorf("placement: filtered mass for element %d is %v", u, sum)
		}
		for t := 0; t < n; t++ {
			xt[t][u] /= sum
		}
	}
	assign, _, err := gap.RoundWith(sv.gws, g, xt)
	if err != nil {
		return Placement{}, fmt.Errorf("placement: SSQPP rounding: %w", err)
	}
	f := make([]int, nU)
	for u, t := range assign {
		f[u] = frac.order[t]
	}
	return NewPlacement(f), nil
}
