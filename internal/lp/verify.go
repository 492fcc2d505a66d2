package lp

import (
	"fmt"
	"math"
)

// VerifySolution checks that sol is a primally feasible point of p: every
// variable is non-negative (and zero when fixed), every constraint holds
// within tol scaled by the row's magnitude, and the reported objective
// matches the cost vector applied to X. It returns the first violation
// found. The SSQPP LP, the GAP LP and the Naor–Wool strategy LP call this
// after every solve so a simplex regression surfaces as an explicit
// invariant failure instead of a silently wrong placement.
func (p *Problem) VerifySolution(sol *Solution, tol float64) error {
	if sol == nil {
		return fmt.Errorf("lp: verify: no solution")
	}
	if sol.Status != Optimal {
		return fmt.Errorf("lp: verify: no optimal solution (status %v)", sol.Status)
	}
	if len(sol.X) != len(p.costs) {
		return fmt.Errorf("lp: verify: %d values for %d variables", len(sol.X), len(p.costs))
	}
	obj := 0.0
	for j, x := range sol.X {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("lp: verify: %s = %v", p.varName(j), x)
		}
		if x < -tol {
			return fmt.Errorf("lp: verify: %s = %v violates non-negativity", p.varName(j), x)
		}
		if p.Fixed(j) && math.Abs(x) > tol {
			return fmt.Errorf("lp: verify: fixed variable %s = %v", p.varName(j), x)
		}
		obj += p.costs[j] * x
	}
	for i, c := range p.cons {
		lhs, scale := 0.0, math.Max(1, math.Abs(c.rhs))
		for _, t := range c.terms {
			lhs += t.Coef * sol.X[t.Var]
			if a := math.Abs(t.Coef * sol.X[t.Var]); a > scale {
				scale = a
			}
		}
		slack := lhs - c.rhs
		switch c.rel {
		case LE:
			if slack > tol*scale {
				return fmt.Errorf("lp: verify: constraint %d: %v > %v", i, lhs, c.rhs)
			}
		case GE:
			if slack < -tol*scale {
				return fmt.Errorf("lp: verify: constraint %d: %v < %v", i, lhs, c.rhs)
			}
		case EQ:
			if math.Abs(slack) > tol*scale {
				return fmt.Errorf("lp: verify: constraint %d: %v != %v", i, lhs, c.rhs)
			}
		}
	}
	if scale := math.Max(1, math.Abs(sol.Objective)); math.Abs(obj-sol.Objective) > tol*scale {
		return fmt.Errorf("lp: verify: objective %v but cᵀx = %v", sol.Objective, obj)
	}
	return nil
}
