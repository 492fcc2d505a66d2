package gap

import (
	"fmt"
	"math"

	"quorumplace/internal/lp"
	"quorumplace/internal/obs"
)

// Skeleton is a reusable LP model of one GAP instance's sparsity pattern:
// which (machine, job) pairs are allowed and which rows exist. It is the
// only route to the relaxation: a fresh skeleton's first solve is cold (the
// one-shot Theorem 5.1 solve), and costs and capacities can be re-set
// between solves without rebuilding the model, repeated solves reusing the
// previous optimal basis through lp.SolveHot — the incremental path of the
// daemon's per-tick shard re-planning.
//
// The allowed-pair pattern is fixed at construction from the instance's
// Load matrix: a +Inf load never gets a variable. Later capacity edits may
// only shrink or grow the machine budgets (the RHS); they cannot forbid new
// pairs. A Skeleton is not safe for concurrent use.
type Skeleton struct {
	// Rec routes the telemetry of solves through this skeleton; the zero
	// value records through the ambient package-level collector.
	Rec obs.Rec

	m, n   int
	prob   *lp.Problem
	vars   [][]int // vars[i][j] = LP variable of pair (i,j), -1 if forbidden
	capRow []int   // capRow[i] = constraint row of machine i's capacity, -1 if none
	ws     *lp.Workspace
}

// NewSkeleton validates the instance and builds the relaxation (15)–(18)
// once: minimize Σ c_ij y_ij subject to Σ_i y_ij = 1 per job,
// Σ_j p_ij y_ij ≤ T_i per machine and y ≥ 0, where forbidden (+Inf-load)
// pairs get no variable and a machine with no positive-load pair gets no
// capacity row.
func NewSkeleton(ins *Instance) (*Skeleton, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	m, n := ins.NumMachines(), ins.NumJobs()
	prob := lp.NewProblem()
	vars := make([][]int, m)
	for i := 0; i < m; i++ {
		vars[i] = make([]int, n)
		for j := 0; j < n; j++ {
			vars[i][j] = -1
			if !math.IsInf(ins.Load[i][j], 1) {
				vars[i][j] = prob.AddVar(ins.Cost[i][j], fmt.Sprintf("y_%d_%d", i, j))
			}
		}
	}
	// One scratch row shared by every constraint: AddConstraint copies.
	terms := make([]lp.Term, 0, max(m, n))
	for j := 0; j < n; j++ {
		terms = terms[:0]
		for i := 0; i < m; i++ {
			if vars[i][j] >= 0 {
				terms = append(terms, lp.Term{Var: vars[i][j], Coef: 1})
			}
		}
		if len(terms) == 0 {
			return nil, fmt.Errorf("gap: job %d has no allowed machine", j)
		}
		prob.AddConstraint(terms, lp.EQ, 1)
	}
	capRow := make([]int, m)
	for i := 0; i < m; i++ {
		capRow[i] = -1
		terms = terms[:0]
		for j := 0; j < n; j++ {
			if vars[i][j] >= 0 && ins.Load[i][j] > 0 {
				terms = append(terms, lp.Term{Var: vars[i][j], Coef: ins.Load[i][j]})
			}
		}
		if len(terms) > 0 {
			capRow[i] = prob.NumConstraints()
			prob.AddConstraint(terms, lp.LE, ins.T[i])
		}
	}
	return &Skeleton{m: m, n: n, prob: prob, vars: vars, capRow: capRow, ws: lp.NewWorkspace()}, nil
}

// SetCosts overwrites the objective with a new cost matrix (same shape as
// the instance's Cost). Forbidden pairs' entries are ignored. Cost edits
// never force the next solve cold.
func (sk *Skeleton) SetCosts(cost [][]float64) error {
	if len(cost) != sk.m {
		return fmt.Errorf("gap: %d cost rows, want %d", len(cost), sk.m)
	}
	for i := 0; i < sk.m; i++ {
		if len(cost[i]) != sk.n {
			return fmt.Errorf("gap: cost row %d has %d jobs, want %d", i, len(cost[i]), sk.n)
		}
		for j := 0; j < sk.n; j++ {
			if v := sk.vars[i][j]; v >= 0 {
				sk.prob.SetCost(v, cost[i][j])
			}
		}
	}
	return nil
}

// SetCapacities overwrites the machine budgets. Machines that never got a
// capacity row (no positive-load allowed pair) silently ignore their entry.
// Capacity edits stay on the warm path as long as the retained basis
// remains feasible under the new budgets; tightening past the basic
// activity falls back to a cold solve automatically.
func (sk *Skeleton) SetCapacities(t []float64) error {
	if len(t) != sk.m {
		return fmt.Errorf("gap: %d capacities, want %d", len(t), sk.m)
	}
	for i, row := range sk.capRow {
		if row >= 0 {
			sk.prob.SetRHS(row, t[i])
		}
	}
	return nil
}

// ResetWarm discards the retained basis so the next solve runs cold, as a
// fresh skeleton's first solve does.
func (sk *Skeleton) ResetWarm() { sk.ws.ResetWarm() }

// SolveLP solves the current relaxation, returning the fractional solution
// y[machine][job], its objective, and whether the warm path was taken.
func (sk *Skeleton) SolveLP() ([][]float64, float64, bool, error) {
	sk.ws.Rec = sk.Rec
	sol, warm, err := sk.prob.SolveHot(sk.ws)
	if err != nil {
		return nil, 0, warm, fmt.Errorf("gap: LP relaxation: %w", err)
	}
	// Post-solve invariant check: the simplex hot path keeps being
	// rewritten, so assert primal feasibility before rounding trusts y.
	if err := sk.prob.VerifySolution(sol, 1e-6); err != nil {
		return nil, 0, warm, fmt.Errorf("gap: LP relaxation returned an infeasible point: %w", err)
	}
	y := make([][]float64, sk.m)
	for i := 0; i < sk.m; i++ {
		y[i] = make([]float64, sk.n)
		for j := 0; j < sk.n; j++ {
			if sk.vars[i][j] >= 0 {
				y[i][j] = sol.X[sk.vars[i][j]]
			}
		}
	}
	return y, sol.Objective, warm, nil
}
