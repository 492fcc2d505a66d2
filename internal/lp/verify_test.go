package lp

import (
	"strings"
	"testing"
)

// small LP used by the verifier tests: min x+2y s.t. x+y = 3, x ≤ 2.
func verifyProblem() *Problem {
	p := NewProblem()
	x := p.AddVar(1, "x")
	y := p.AddVar(2, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 3)
	p.AddConstraint([]Term{{x, 1}}, LE, 2)
	return p
}

func TestVerifySolutionAcceptsOptimum(t *testing.T) {
	p := verifyProblem()
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifySolution(sol, 1e-9); err != nil {
		t.Fatalf("verifier rejected the solver's own optimum: %v", err)
	}
}

func TestVerifySolutionDetectsViolations(t *testing.T) {
	p := verifyProblem()
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(s *Solution)
		want   string
	}{
		{"broken equality", func(s *Solution) { s.X[1] += 0.5 }, "!="},
		{"broken inequality", func(s *Solution) { s.X[0], s.X[1] = 3, 0 }, ">"},
		{"negative variable", func(s *Solution) { s.X[0], s.X[1] = -1, 4 }, "non-negativity"},
		{"wrong objective", func(s *Solution) { s.Objective += 1 }, "objective"},
	}
	if err := p.VerifySolution(nil, 1e-9); err == nil || !strings.Contains(err.Error(), "no solution") {
		t.Fatalf("nil solution: verifier returned %v, want an error", err)
	}
	for _, tc := range cases {
		bad := &Solution{Status: sol.Status, Objective: sol.Objective, X: append([]float64(nil), sol.X...)}
		tc.mutate(bad)
		err := p.VerifySolution(bad, 1e-9)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: verifier returned %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestVerifySolutionFixedVariables(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1, "x")
	y := p.AddVar(1, "y")
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 1)
	p.SetFixed(y, true)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VerifySolution(sol, 1e-9); err != nil {
		t.Fatal(err)
	}
	sol.X[y] = 0.5
	sol.X[x] = 0.5
	if err := p.VerifySolution(sol, 1e-9); err == nil || !strings.Contains(err.Error(), "fixed") {
		t.Fatalf("verifier accepted mass on a fixed variable: %v", err)
	}
}
