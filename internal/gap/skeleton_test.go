package gap

import (
	"math"
	"math/rand"
	"testing"

	"quorumplace/internal/lp"
)

// randomInstance builds a feasible random GAP instance: every job fits on
// every machine and total capacity comfortably exceeds total load.
func randomInstance(rng *rand.Rand, m, n int) *Instance {
	ins := &Instance{
		Cost: make([][]float64, m),
		Load: make([][]float64, m),
		T:    make([]float64, m),
	}
	for i := 0; i < m; i++ {
		ins.Cost[i] = make([]float64, n)
		ins.Load[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			ins.Cost[i][j] = 1 + 9*rng.Float64()
			ins.Load[i][j] = 0.5 + rng.Float64()
		}
	}
	for i := 0; i < m; i++ {
		ins.T[i] = 1.5 * float64(n) / float64(m)
	}
	return ins
}

// referenceLP builds the relaxation (15)–(18) straight from its definition
// (variables machine-major, one equality row per job, then one capacity
// row per machine that has a positive-load allowed pair) and solves it
// one-shot through lp.Problem.Solve's pooled workspace.
func referenceLP(t *testing.T, ins *Instance) ([][]float64, float64) {
	t.Helper()
	m, n := ins.NumMachines(), ins.NumJobs()
	prob := lp.NewProblem()
	vars := make([][]int, m)
	for i := range vars {
		vars[i] = make([]int, n)
		for j := range vars[i] {
			vars[i][j] = -1
			if !math.IsInf(ins.Load[i][j], 1) {
				vars[i][j] = prob.AddVar(ins.Cost[i][j], "")
			}
		}
	}
	for j := 0; j < n; j++ {
		var terms []lp.Term
		for i := 0; i < m; i++ {
			if vars[i][j] >= 0 {
				terms = append(terms, lp.Term{Var: vars[i][j], Coef: 1})
			}
		}
		prob.AddConstraint(terms, lp.EQ, 1)
	}
	for i := 0; i < m; i++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if vars[i][j] >= 0 && ins.Load[i][j] > 0 {
				terms = append(terms, lp.Term{Var: vars[i][j], Coef: ins.Load[i][j]})
			}
		}
		if len(terms) > 0 {
			prob.AddConstraint(terms, lp.LE, ins.T[i])
		}
	}
	sol, err := prob.Solve()
	if err != nil {
		t.Fatalf("reference LP: %v", err)
	}
	y := make([][]float64, m)
	for i := range y {
		y[i] = make([]float64, n)
		for j := range y[i] {
			if vars[i][j] >= 0 {
				y[i][j] = sol.X[vars[i][j]]
			}
		}
	}
	return y, sol.Objective
}

// TestSkeletonMatchesSolveLPBitwise checks that a skeleton's cold solve is
// the one-shot LP solve of the relaxation bit for bit: a fresh skeleton's
// first solve, and a re-solve after its costs were moved away, solved
// warm, restored and ResetWarm, both equal referenceLP exactly.
func TestSkeletonMatchesSolveLPBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		ins := randomInstance(rng, 3+trial%3, 6+trial)
		if trial%2 == 1 {
			ins.Load[0][0] = math.Inf(1) // exercise the forbidden-pair pattern
		}
		yA, objA := referenceLP(t, ins)
		sk, err := NewSkeleton(ins)
		if err != nil {
			t.Fatalf("trial %d: NewSkeleton: %v", trial, err)
		}
		other := make([][]float64, len(ins.Cost))
		for i := range other {
			other[i] = make([]float64, len(ins.Cost[i]))
			for j := range other[i] {
				other[i][j] = 1 + 9*rng.Float64()
			}
		}
		for pass, name := range []string{"fresh", "reset"} {
			if pass == 1 {
				if err := sk.SetCosts(other); err != nil {
					t.Fatal(err)
				}
				if _, _, warm, err := sk.SolveLP(); err != nil || !warm {
					t.Fatalf("trial %d: re-costed solve: warm=%v err=%v, want warm", trial, warm, err)
				}
				if err := sk.SetCosts(ins.Cost); err != nil {
					t.Fatal(err)
				}
				sk.ResetWarm()
			}
			yB, objB, warm, err := sk.SolveLP()
			if err != nil {
				t.Fatalf("trial %d %s: skeleton SolveLP: %v", trial, name, err)
			}
			if warm {
				t.Fatalf("trial %d %s: skeleton solve claimed warm", trial, name)
			}
			if objA != objB {
				t.Fatalf("trial %d %s: objective differs bitwise: %v vs %v", trial, name, objA, objB)
			}
			for i := range yA {
				for j := range yA[i] {
					if yA[i][j] != yB[i][j] {
						t.Fatalf("trial %d %s: y[%d][%d] differs bitwise: %v vs %v",
							trial, name, i, j, yA[i][j], yB[i][j])
					}
				}
			}
		}
	}
}

// TestSkeletonWarmResolve drives cost and capacity edits through one
// skeleton, comparing every solve against a fresh skeleton's cold solve.
func TestSkeletonWarmResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ins := randomInstance(rng, 4, 10)
	sk, err := NewSkeleton(ins)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sk.SolveLP(); err != nil {
		t.Fatal(err)
	}
	warmCount := 0
	for iter := 0; iter < 30; iter++ {
		cost := make([][]float64, len(ins.Cost))
		for i := range cost {
			cost[i] = make([]float64, len(ins.Cost[i]))
			for j := range cost[i] {
				cost[i][j] = 1 + 9*rng.Float64()
			}
		}
		caps := make([]float64, len(ins.T))
		for i := range caps {
			caps[i] = ins.T[i] * (0.9 + 0.4*rng.Float64())
		}
		if err := sk.SetCosts(cost); err != nil {
			t.Fatal(err)
		}
		if err := sk.SetCapacities(caps); err != nil {
			t.Fatal(err)
		}
		y, obj, warm, err := sk.SolveLP()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if warm {
			warmCount++
		}
		ref := &Instance{Cost: cost, Load: ins.Load, T: caps}
		yRef, objRef, err := solveLP(ref)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", iter, err)
		}
		if math.Abs(obj-objRef) > 1e-6*(1+math.Abs(objRef)) {
			t.Fatalf("iter %d (warm=%v): objective %v != reference %v", iter, warm, obj, objRef)
		}
		// The warm solve may sit on a different vertex of the same optimal
		// face, so compare per-job mass, not y entrywise.
		for j := range yRef[0] {
			sum := 0.0
			for i := range y {
				sum += y[i][j]
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("iter %d: job %d mass %v", iter, j, sum)
			}
		}
	}
	if warmCount == 0 {
		t.Fatal("no solve took the warm path")
	}
}

// TestSkeletonResetWarm checks that ResetWarm forces the next solve cold.
func TestSkeletonResetWarm(t *testing.T) {
	ins := simpleInstance()
	sk, err := NewSkeleton(ins)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sk.SolveLP(); err != nil {
		t.Fatal(err)
	}
	if _, _, warm, err := sk.SolveLP(); err != nil || !warm {
		t.Fatalf("second solve: warm=%v err=%v, want warm", warm, err)
	}
	sk.ResetWarm()
	if _, _, warm, err := sk.SolveLP(); err != nil || warm {
		t.Fatalf("post-reset solve: warm=%v err=%v, want cold", warm, err)
	}
}

// TestSkeletonRejectsBadShapes checks the dimension validation of the
// re-cost hooks.
func TestSkeletonRejectsBadShapes(t *testing.T) {
	sk, err := NewSkeleton(simpleInstance())
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.SetCosts([][]float64{{1, 1, 1}}); err == nil {
		t.Fatal("short cost matrix accepted")
	}
	if err := sk.SetCosts([][]float64{{1, 1}, {1, 1}}); err == nil {
		t.Fatal("short cost row accepted")
	}
	if err := sk.SetCapacities([]float64{1}); err == nil {
		t.Fatal("short capacity vector accepted")
	}
}
