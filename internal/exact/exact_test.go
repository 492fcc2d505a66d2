package exact

import (
	"math"
	"math/rand"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func buildInstance(t *testing.T, rng *rand.Rand) *placement.Instance {
	t.Helper()
	sys := quorum.Grid(2)
	if rng.Intn(2) == 0 {
		sys = quorum.Majority(4, 3)
	}
	st := quorum.Uniform(sys.NumQuorums())
	n := 4 + rng.Intn(3)
	g := graph.ErdosRenyiConnected(n, 0.5, 1, 3, rng)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, n)
	tmp, err := placement.NewInstance(m, make([]float64, n), sys, st)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < sys.Universe(); u++ {
		caps[rng.Intn(n)] += tmp.Load(u)
	}
	ins, err := placement.NewInstance(m, caps, sys, st)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// naive enumerates every capacity-feasible placement without pruning and
// returns the least value of obj.
func naive(ins *placement.Instance, obj func(placement.Placement) float64) float64 {
	nU := ins.Sys.Universe()
	n := ins.M.N()
	best := math.Inf(1)
	f := make([]int, nU)
	var rec func(u int)
	rec = func(u int) {
		if u == nU {
			p := placement.NewPlacement(f)
			if ins.Feasible(p) {
				if d := obj(p); d < best {
					best = d
				}
			}
			return
		}
		for v := 0; v < n; v++ {
			f[u] = v
			rec(u + 1)
		}
	}
	rec(0)
	return best
}

func TestSolveSSQPPMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		ins := buildInstance(t, rng)
		v0 := rng.Intn(ins.M.N())
		p, val, err := SolveSSQPP(ins, v0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ins.Feasible(p) {
			t.Fatalf("trial %d: returned placement infeasible", trial)
		}
		if d := ins.MaxDelayFrom(v0, p); math.Abs(d-val) > 1e-9 {
			t.Fatalf("trial %d: reported %v but placement has %v", trial, val, d)
		}
		want := naive(ins, func(p placement.Placement) float64 { return ins.MaxDelayFrom(v0, p) })
		if math.Abs(val-want) > 1e-9 {
			t.Fatalf("trial %d: B&B %v != naive %v", trial, val, want)
		}
	}
}

func TestSolveQPPMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 5; trial++ {
		ins := buildInstance(t, rng)
		p, val, err := SolveQPP(ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ins.Feasible(p) {
			t.Fatalf("trial %d: infeasible placement", trial)
		}
		want := naive(ins, ins.AvgMaxDelay)
		if math.Abs(val-want) > 1e-9 {
			t.Fatalf("trial %d: B&B %v != naive %v", trial, val, want)
		}
	}
}

func TestSolveTotalDelayDecomposes(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 5; trial++ {
		ins := buildInstance(t, rng)
		p, val, err := SolveTotalDelay(ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := ins.AvgTotalDelay(p); math.Abs(d-val) > 1e-9 {
			t.Fatalf("trial %d: reported %v, placement evaluates to %v", trial, val, d)
		}
		// For total delay the optimum assigns each element greedily by
		// load·avgdist, subject to capacities — verify against naive.
		if best := naive(ins, ins.AvgTotalDelay); math.Abs(val-best) > 1e-9 {
			t.Fatalf("trial %d: B&B %v != naive %v", trial, val, best)
		}
	}
}

// TestWeightedMatchesNaive sets random client rates. The QPP bound must
// weight clients as the objective does, or it can prune the optimum.
// Every node can host every element, so the search has many placements
// to prune.
func TestWeightedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		planted := buildInstance(t, rng)
		caps := make([]float64, planted.M.N())
		for v := range caps {
			caps[v] = planted.TotalLoad()
		}
		ins, err := placement.NewInstance(planted.M, caps, planted.Sys, planted.Strat)
		if err != nil {
			t.Fatal(err)
		}
		rates := make([]float64, ins.M.N())
		for v := range rates {
			rates[v] = 0.1 + 3*rng.Float64()
		}
		if err := ins.SetRates(rates); err != nil {
			t.Fatal(err)
		}
		_, val, err := SolveQPP(ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := naive(ins, ins.AvgMaxDelay); math.Abs(val-want) > 1e-9 {
			t.Fatalf("trial %d: QPP B&B %v != naive %v", trial, val, want)
		}
		_, val, err = SolveTotalDelay(ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := naive(ins, ins.AvgTotalDelay); math.Abs(val-want) > 1e-9 {
			t.Fatalf("trial %d: total-delay B&B %v != naive %v", trial, val, want)
		}
	}
}

func TestInfeasibleInstance(t *testing.T) {
	g := graph.Path(3)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Grid(2)
	ins, err := placement.NewInstance(m, []float64{0.1, 0.1, 0.1}, sys, quorum.Uniform(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolveSSQPP(ins, 0); err == nil {
		t.Fatal("expected infeasibility error")
	}
	if _, _, err := SolveQPP(ins); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestSizeLimits(t *testing.T) {
	g := graph.Path(20)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Grid(2)
	caps := make([]float64, 20)
	for i := range caps {
		caps[i] = 1
	}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolveSSQPP(ins, 0); err == nil {
		t.Fatal("expected size-limit error for 20 nodes")
	}
	g2 := graph.Path(5)
	m2, _ := graph.NewMetricFromGraph(g2)
	sys2 := quorum.Grid(4) // universe 16 > 12
	caps2 := []float64{10, 10, 10, 10, 10}
	ins2, err := placement.NewInstance(m2, caps2, sys2, quorum.Uniform(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolveSSQPP(ins2, 0); err == nil {
		t.Fatal("expected size-limit error for universe 16")
	}
}
