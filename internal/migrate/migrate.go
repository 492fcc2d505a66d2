// Package migrate plans placement changes: when client rates, capacities,
// or the network change, a new placement trades access delay against the
// cost of moving replica state between nodes. Because both the total-delay
// objective (§5 of the paper) and the movement cost decompose per element,
// their weighted sum is still a Generalized Assignment Problem, so the
// Theorem 5.1 machinery applies verbatim: the planned placement's combined
// objective is no worse than that of any capacity-respecting placement,
// with node loads within 2·cap.
//
// Sweeping the movement weight λ traces the delay/migration Pareto
// frontier; λ = 0 recovers placement.SolveTotalDelay, λ → ∞ freezes the
// old placement (when it is still capacity-feasible).
package migrate

import (
	"fmt"
	"math"

	"quorumplace/internal/placement"
)

// Cost returns the movement cost of switching from the old to the new
// placement: Σ_u load(u) · d(old(u), new(u)). Element load is the proxy
// for state size (heavily used elements hold proportionally more state in
// the paper's load model).
func Cost(ins *placement.Instance, oldP, newP placement.Placement) (float64, error) {
	if err := ins.Validate(oldP); err != nil {
		return 0, fmt.Errorf("migrate: old placement: %w", err)
	}
	if err := ins.Validate(newP); err != nil {
		return 0, fmt.Errorf("migrate: new placement: %w", err)
	}
	sum := 0.0
	for u := 0; u < oldP.Len(); u++ {
		sum += ins.Load(u) * ins.M.D(oldP.Node(u), newP.Node(u))
	}
	return sum, nil
}

// Plan is the outcome of Solve.
type Plan struct {
	Placement placement.Placement
	AvgDelay  float64 // Avg_v Γ of the new placement
	Moved     float64 // movement cost from the old placement
	Lambda    float64
	LPBound   float64 // lower bound on delay + λ·movement over capacity-respecting placements
}

// Solve computes a placement minimizing AvgΓ + λ·movement-from-oldP via the
// GAP reduction, with node loads within 2·cap (Theorem 5.1's guarantee
// applied to the combined objective). λ must be non-negative. It is one
// cold Plan of a fresh full-universe Planner.
func Solve(ins *placement.Instance, oldP placement.Placement, lambda float64) (*Plan, error) {
	pl, err := NewPlanner(ins, nil)
	if err != nil {
		return nil, err
	}
	plan, _, err := pl.Plan(oldP, lambda)
	return plan, err
}

// ParetoSweep solves Plan for each λ and returns the plans in order. Use it
// to chart the delay/movement frontier after a workload shift.
//
// All λ values are validated before any solve runs, so a bad value late in
// the sweep is rejected up front instead of discarding the plans already
// computed for the earlier values.
func ParetoSweep(ins *placement.Instance, oldP placement.Placement, lambdas []float64) ([]*Plan, error) {
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("migrate: no lambda values")
	}
	for i, l := range lambdas {
		if l < 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("migrate: lambda[%d] = %v must be a finite non-negative value", i, l)
		}
	}
	pl, err := NewPlanner(ins, nil)
	if err != nil {
		return nil, err
	}
	plans := make([]*Plan, 0, len(lambdas))
	for _, l := range lambdas {
		// Every λ solves cold, so each plan is Solve's for that λ alone.
		pl.ResetWarm()
		p, _, err := pl.Plan(oldP, l)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}
