package treedp_test

import (
	"math"
	"math/rand"
	"testing"

	"quorumplace/internal/check"
	"quorumplace/internal/exact"
	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
	"quorumplace/internal/treedp"
)

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// The subset DP must reproduce the branch-and-bound oracle's optimum on the
// seeded differential sweep, for every source. This is the core
// "objective-equal" acceptance criterion of the exact fast path.
func TestSSQPPMatchesExactOracle(t *testing.T) {
	tested := 0
	for seed := int64(1); seed <= 40; seed++ {
		ci := check.Gen(seed)
		ins := ci.Instance
		loads := ins.Loads()
		mass := treedp.SubsetMass(ins.Sys, ins.Strat)
		for v0 := 0; v0 < ins.M.N(); v0 += 3 {
			_, want, err := exact.SolveSSQPP(ins, v0)
			f, got, dpErr := treedp.SolveSSQPP(obs.Rec{}, ins.M.Row(v0), ins.Cap, loads, mass)
			if err != nil {
				if dpErr == nil {
					t.Fatalf("%s v0=%d: oracle failed (%v) but DP succeeded", ci.Desc, v0, err)
				}
				continue
			}
			if dpErr != nil {
				t.Fatalf("%s v0=%d: %v", ci.Desc, v0, dpErr)
			}
			if !approxEq(got, want, 1e-9) {
				t.Fatalf("%s v0=%d: DP objective %v, exact optimum %v", ci.Desc, v0, got, want)
			}
			pl := placement.NewPlacement(f)
			if !ins.Feasible(pl) {
				t.Fatalf("%s v0=%d: DP placement violates capacities", ci.Desc, v0)
			}
			if d := ins.MaxDelayFrom(v0, pl); !approxEq(d, got, 1e-9) {
				t.Fatalf("%s v0=%d: DP claims %v, recomputed Δ_f(v0) = %v", ci.Desc, v0, got, d)
			}
			tested++
		}
	}
	if tested < 50 {
		t.Fatalf("only %d differential cases ran", tested)
	}
}

// The diametral-pair evaluation must match the dense-metric evaluation of
// the same placement on random trees and random placements.
func TestTreeQPPEvaluationMatchesDenseMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(40)
		g := graph.RandomTree(n, 0.3, 2.0, rng)
		m, err := graph.NewMetricFromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		sys := quorum.Majority(5, 3)
		strat := quorum.Uniform(sys.NumQuorums())
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 2
		}
		ins, err := placement.NewInstance(m, caps, sys, strat)
		if err != nil {
			t.Fatal(err)
		}
		var rates []float64
		if trial%2 == 1 {
			rates = make([]float64, n)
			for i := range rates {
				rates[i] = 1 + rng.Float64()*4
			}
			if err := ins.SetRates(rates); err != nil {
				t.Fatal(err)
			}
		}
		res, err := treedp.SolveQPP(g, caps, sys, strat, rates)
		if err != nil {
			t.Fatal(err)
		}
		pl := placement.NewPlacement(res.F)
		if want := ins.AvgMaxDelay(pl); !approxEq(res.AvgMaxDelay, want, 1e-9) {
			t.Fatalf("trial %d: tree evaluation %v, dense metric gives %v", trial, res.AvgMaxDelay, want)
		}
		if !ins.Feasible(pl) {
			t.Fatalf("trial %d: infeasible placement", trial)
		}
	}
}

// On small trees the driver tries every source with an exact per-source
// solve, so its result must (a) match the exact SSQPP optimum at its chosen
// source, (b) stay within the Lemma 3.1 relay factor of the true QPP
// optimum, and (c) never lose to the LP pipeline on instances where the LP
// rounding stays capacity-respecting.
func TestTreeQPPAgainstOracles(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 60 && checked < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := graph.RandomTree(n, 0.4, 2.0, rng)
		m, err := graph.NewMetricFromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		sys := quorum.Majority(4, 3)
		strat := quorum.Uniform(sys.NumQuorums())
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 0.6 + rng.Float64()
		}
		tIns, err := placement.NewInstance(m, caps, sys, strat)
		if err != nil {
			t.Fatal(err)
		}
		res, err := treedp.SolveQPP(g, caps, sys, strat, nil)
		if err != nil {
			continue // capacity profile infeasible; nothing to compare
		}
		if _, want, err := exact.SolveSSQPP(tIns, res.BestV0); err == nil && !approxEq(res.SourceDelay, want, 1e-9) {
			t.Fatalf("seed %d: source delay %v, exact SSQPP optimum %v", seed, res.SourceDelay, want)
		}
		if _, optVal, err := exact.SolveQPP(tIns); err == nil {
			if res.AvgMaxDelay < optVal*(1-1e-9)-1e-9 {
				t.Fatalf("seed %d: tree DP avg %v beats the capacity-respecting optimum %v", seed, res.AvgMaxDelay, optVal)
			}
			if res.AvgMaxDelay > 5*optVal*(1+1e-9)+1e-9 {
				t.Fatalf("seed %d: tree DP avg %v outside the relay factor of optimum %v", seed, res.AvgMaxDelay, optVal)
			}
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d oracle comparisons ran", checked)
	}
}

// Large-instance smoke: a large tree with skewed demand solves fast and
// the reported objective survives an independent re-evaluation. check.sh
// and CI run it with -short (10⁴ nodes) as the scaling smoke test; the
// full test run covers 3×10⁴.
func TestTreeDPLargeSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 30_000
	if testing.Short() {
		n = 10_000
	}
	g := graph.RandomTree(n, 0.1, 1.0, rng)
	sys := quorum.Majority(5, 3)
	strat := quorum.Uniform(sys.NumQuorums())
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.7 // any element fits anywhere; contention still binds
	}
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = float64(1 + rng.Intn(1000))
	}
	res, err := treedp.SolveQPP(g, caps, sys, strat, rates)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.AvgMaxDelay) || math.IsInf(res.AvgMaxDelay, 0) || res.AvgMaxDelay <= 0 {
		t.Fatalf("objective %v", res.AvgMaxDelay)
	}
	// Capacity check from first principles.
	loads, _ := sys.Loads(strat)
	nodeLoad := map[int]float64{}
	for u, v := range res.F {
		nodeLoad[v] += loads[u]
	}
	for v, l := range nodeLoad {
		if l > caps[v]*(1+1e-9)+1e-9 {
			t.Fatalf("node %d overloaded: %v > %v", v, l, caps[v])
		}
	}
	// Independent evaluation: one tree-distance vector per placed node.
	rows := map[int][]float64{}
	for _, v := range res.F {
		if _, ok := rows[v]; !ok {
			dist := make([]float64, n)
			for i := range dist {
				dist[i] = math.Inf(1)
			}
			// BFS re-derivation without package internals.
			dist[v] = 0
			stack := []int{v}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, e := range g.Neighbors(u) {
					if math.IsInf(dist[e.To], 1) {
						dist[e.To] = dist[u] + e.Length
						stack = append(stack, e.To)
					}
				}
			}
			rows[v] = dist
		}
	}
	total, wsum := 0.0, 0.0
	for v := 0; v < n; v++ {
		dv := 0.0
		for q := 0; q < sys.NumQuorums(); q++ {
			pq := strat.P(q)
			if pq == 0 {
				continue
			}
			worst := 0.0
			for _, u := range sys.Quorum(q) {
				if d := rows[res.F[u]][v]; d > worst {
					worst = d
				}
			}
			dv += pq * worst
		}
		total += rates[v] * dv
		wsum += rates[v]
	}
	if want := total / wsum; !approxEq(res.AvgMaxDelay, want, 1e-9) {
		t.Fatalf("reported %v, independent evaluation %v", res.AvgMaxDelay, want)
	}
}
