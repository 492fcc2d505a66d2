package lp

import (
	"math"
	"math/rand"
	"testing"
)

// dualOf builds the LP dual of p as a Problem of its own. The primal is
// min cᵀx over x ≥ 0 with fixed variables removed; its dual is
// max bᵀy s.t. Σᵢ aᵢⱼyᵢ ≤ cⱼ for every free column j, with yᵢ ≤ 0 on ≤ rows,
// yᵢ ≥ 0 on ≥ rows and yᵢ free on = rows. In this package's form every
// variable is non-negative and the objective is minimized, so a ≥ row's yᵢ
// is one variable, a ≤ row's is its negation, a free yᵢ is split as
// u⁺ − u⁻, and the objective is −bᵀy: at an optimum the dual's Objective is
// minus the primal's.
func dualOf(p *Problem) *Problem {
	d := NewProblem()
	type part struct {
		v    int
		sign float64
	}
	parts := make([][]part, len(p.cons))
	for i, c := range p.cons {
		switch c.rel {
		case GE:
			parts[i] = []part{{d.AddVar(-c.rhs, ""), 1}}
		case LE:
			parts[i] = []part{{d.AddVar(c.rhs, ""), -1}}
		case EQ:
			parts[i] = []part{{d.AddVar(-c.rhs, ""), 1}, {d.AddVar(c.rhs, ""), -1}}
		}
	}
	col := make([][]Term, len(p.costs))
	for i, c := range p.cons {
		for _, t := range c.terms {
			for _, pt := range parts[i] {
				col[t.Var] = append(col[t.Var], Term{Var: pt.v, Coef: pt.sign * t.Coef})
			}
		}
	}
	for j, terms := range col {
		if !p.Fixed(j) {
			d.AddConstraint(terms, LE, p.costs[j])
		}
	}
	return d
}

// certify solves p through SolveHot on ws, solves its dual cold, and
// requires both answers to pass VerifySolution and their objectives to
// agree within 1e-7 relative: by strong duality that makes the primal
// answer optimal whatever pivot path reached it. It returns the primal
// solution and whether SolveHot took the warm path.
func certify(t *testing.T, name string, p *Problem, ws *Workspace) (*Solution, bool) {
	t.Helper()
	sol, warm, err := p.SolveHot(ws)
	if err != nil {
		t.Fatalf("%s: primal: %v", name, err)
	}
	if err := p.VerifySolution(sol, 1e-7); err != nil {
		t.Fatalf("%s: primal: %v", name, err)
	}
	d := dualOf(p)
	dsol, err := d.Solve()
	if err != nil {
		t.Fatalf("%s: dual: %v", name, err)
	}
	if err := d.VerifySolution(dsol, 1e-7); err != nil {
		t.Fatalf("%s: dual: %v", name, err)
	}
	if gap := math.Abs(sol.Objective + dsol.Objective); gap > 1e-7*math.Max(1, math.Abs(sol.Objective)) {
		t.Fatalf("%s: primal objective %.12g, dual %.12g (warm %v)", name, sol.Objective, -dsol.Objective, warm)
	}
	return sol, warm
}

// mixedProblem builds a random sparse LP with every row relation, negative
// right-hand sides, fixed variables and costs of both signs, feasible by
// construction around a planted point and bounded by a budget row.
func mixedProblem(rng *rand.Rand, rows, vars int) *Problem {
	p := NewProblem()
	x0 := make([]float64, vars)
	for j := range x0 {
		p.AddVar(2*rng.Float64()-0.5, "")
		if rng.Intn(3) == 0 {
			x0[j] = rng.Float64()
		}
	}
	for j := 0; j < vars; j += 11 {
		if x0[j] == 0 {
			p.SetFixed(j, true)
		}
	}
	budget := make([]Term, vars)
	for j := range budget {
		budget[j] = Term{Var: j, Coef: 1}
	}
	p.AddConstraint(budget, LE, float64(vars))
	for i := 0; i < rows; i++ {
		var terms []Term
		lhs := 0.0
		for k := 0; k < 2+rng.Intn(4); k++ {
			j := rng.Intn(vars)
			a := float64(rng.Intn(5) - 2)
			if a == 0 {
				a = 1
			}
			terms = append(terms, Term{Var: j, Coef: a})
			lhs += a * x0[j]
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint(terms, LE, lhs+float64(rng.Intn(2)))
		case 1:
			p.AddConstraint(terms, GE, lhs-float64(rng.Intn(2)))
		default:
			p.AddConstraint(terms, EQ, lhs)
		}
	}
	return p
}

// TestDevexDualCertificate solves LPs on both sides of the Devex size gate
// (devexMinCells) and certifies every answer against the explicitly built
// dual, so a pricing rule that stops short of the optimum fails whatever
// vertex it stops at. Each problem is then re-costed, and then one ≤ row
// loosened, in place and re-solved warm through the same workspace; each
// warm answer must match a cold solve of the edited model and pass the
// same certificate.
func TestDevexDualCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := []struct {
		name  string
		p     *Problem
		devex bool
	}{
		{"gap 30x8", benchProblem(30, 8), false},
		{"mixed 60x120", mixedProblem(rng, 60, 120), false},
		{"gap 100x20", benchProblem(100, 20), true},
		{"mixed 240x520", mixedProblem(rng, 240, 520), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ws := NewWorkspace()
			certify(t, "cold", c.p, ws)
			if ws.sx.devex != c.devex {
				t.Fatalf("%d×%d tableau priced with Devex = %v, want %v", ws.sx.m, ws.sx.stride, ws.sx.devex, c.devex)
			}
			for v := 0; v < c.p.NumVars(); v += 3 {
				c.p.SetCost(v, c.p.costs[v]*(0.5+rng.Float64()))
			}
			sol, warm := certify(t, "re-costed", c.p, ws)
			if !warm {
				t.Fatal("re-costed solve went cold")
			}
			coldEq(t, "re-costed", c.p, sol)
			for i, con := range c.p.cons {
				if con.rel == LE {
					c.p.SetRHS(i, con.rhs*1.001)
					break
				}
			}
			sol, warm = certify(t, "re-bounded", c.p, ws)
			if !warm {
				t.Fatal("re-bounded solve went cold")
			}
			coldEq(t, "re-bounded", c.p, sol)
		})
	}
}

// coldEq requires sol to match a cold solve of a clone of p within 1e-7
// relative.
func coldEq(t *testing.T, name string, p *Problem, sol *Solution) {
	t.Helper()
	cold, err := p.Clone().Solve()
	if err != nil {
		t.Fatalf("%s: cold: %v", name, err)
	}
	if math.Abs(sol.Objective-cold.Objective) > 1e-7*math.Max(1, math.Abs(cold.Objective)) {
		t.Fatalf("%s: warm objective %.12g, cold %.12g", name, sol.Objective, cold.Objective)
	}
}
