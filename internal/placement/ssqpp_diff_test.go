package placement

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/quorum"
)

// randomDiffInstance builds a small random SSQPP instance: a random
// connected metric, a random quorum system covering the universe, a random
// normalized strategy, and random capacities (occasionally tight enough to
// be infeasible, which the differential test checks both formulations agree
// on).
func randomDiffInstance(t *testing.T, rng *rand.Rand) *Instance {
	t.Helper()
	n := 3 + rng.Intn(6) // 3..8 nodes
	var g *graph.Graph
	if rng.Intn(2) == 0 {
		g = graph.RandomTree(n, 0.5, 2, rng)
	} else {
		g = graph.ErdosRenyiConnected(n, 0.5, 0.5, 2, rng)
	}
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	nU := 2 + rng.Intn(4) // 2..5 elements
	nQ := 1 + rng.Intn(3) // 1..3 quorums
	quorums := make([][]int, nQ)
	covered := make([]bool, nU)
	core := rng.Intn(nU) // shared element, so all quorums pairwise intersect
	for q := range quorums {
		members := []int{core}
		for _, u := range rng.Perm(nU)[:rng.Intn(nU)] {
			if u != core {
				members = append(members, u)
			}
		}
		quorums[q] = members
		for _, u := range members {
			covered[u] = true
		}
	}
	// Every element must appear in some quorum so its load is defined.
	for u, ok := range covered {
		if !ok {
			quorums[rng.Intn(nQ)] = append(quorums[rng.Intn(nQ)], u)
		}
	}
	sys, err := quorum.NewSystem("rand", nU, quorums)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, nQ)
	sum := 0.0
	for q := range w {
		w[q] = 0.1 + rng.Float64()
		sum += w[q]
	}
	for q := range w {
		w[q] /= sum
	}
	st, err := quorum.NewStrategy(w)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, n)
	for v := range caps {
		caps[v] = 0.3 + 1.2*rng.Float64()
	}
	ins, err := NewInstance(m, caps, sys, st)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestSSQPPPrefixMatchesLegacyLP cross-checks the class-space telescoped
// prefix formulation (ssqppmodel.go) against the original dense per-rank
// formulation (legacy_lp_test.go) on randomized instances: the two LPs must
// agree on feasibility and, when feasible, on the optimal objective Z*.
// The extracted fractional solution must also be a valid point of the
// paper's LP: unit column mass, class capacities respected, and the
// objective reachable from it.
func TestSSQPPPrefixMatchesLegacyLP(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	const trials = 50
	agreeInfeasible := 0
	for trial := 0; trial < trials; trial++ {
		ins := randomDiffInstance(t, rng)
		v0 := rng.Intn(ins.M.N())
		got, gotErr := solveSSQPPLP(ins, v0)
		want, wantErr := solveSSQPPLPLegacy(ins, v0)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: feasibility disagreement: prefix err=%v, legacy err=%v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			agreeInfeasible++
			continue
		}
		if math.Abs(got.obj-want.obj) > 1e-6 {
			t.Fatalf("trial %d: Z* mismatch: prefix %.9f, legacy %.9f", trial, got.obj, want.obj)
		}
		checkFracFeasible(t, fmt.Sprintf("trial %d", trial), ins, got)
	}
	if agreeInfeasible == trials {
		t.Fatalf("all %d trials infeasible; the differential test exercised nothing", trials)
	}
	t.Logf("%d trials, %d infeasible on both sides", trials, agreeInfeasible)
}

// checkFracFeasible requires the extracted fractional solution to be a
// point of the paper's LP: (10) unit mass per element, and (12)/(13) per
// rank — capacity respected, forbidden ranks empty.
func checkFracFeasible(t *testing.T, name string, ins *Instance, frac *ssqppFrac) {
	t.Helper()
	n := ins.M.N()
	for u := 0; u < ins.Sys.Universe(); u++ {
		mass := 0.0
		for s := 0; s < n; s++ {
			mass += frac.xu[s][u]
		}
		if math.Abs(mass-1) > 1e-6 {
			t.Fatalf("%s: element %d mass %.9f", name, u, mass)
		}
	}
	for s := 0; s < n; s++ {
		capS := ins.Cap[frac.order[s]]
		load := 0.0
		for u := 0; u < ins.Sys.Universe(); u++ {
			load += ins.loads[u] * frac.xu[s][u]
			if ins.loads[u] > capS*(1+capTol) && frac.xu[s][u] > 1e-9 {
				t.Fatalf("%s: rank %d carries forbidden element %d", name, s, u)
			}
		}
		if load > capS*(1+1e-6)+1e-6 {
			t.Fatalf("%s: rank %d load %.9f exceeds cap %.9f", name, s, load, capS)
		}
	}
}

// TestWarmRunsMatchColdLPOptimum walks every fixed source run with one
// solver, as the QPP sweep does, so each LP after a run's first may
// re-enter phase 2 from its predecessor's basis. A warm solve may end on
// another vertex of the optimal face than a cold one, but it must be a
// feasible point with the cold optimum Z*: every source's objective is
// compared with a fresh cold solveSSQPPLP. The plan-shaped instances
// (random-geometric WANs, unit capacities) chain warm solves; the random
// ones mostly fall back to cold.
func TestWarmRunsMatchColdLPOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var instances []*Instance
	for _, c := range []struct {
		sys *quorum.System
		n   int
	}{{quorum.Grid(3), 14}, {quorum.Majority(5, 3), 27}} {
		m, err := graph.NewMetricFromGraph(graph.RandomGeometric(c.n, 0.4, rng))
		if err != nil {
			t.Fatal(err)
		}
		caps := make([]float64, c.n)
		for v := range caps {
			caps[v] = 1
		}
		ins, err := NewInstance(m, caps, c.sys, quorum.Uniform(c.sys.NumQuorums()))
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ins)
	}
	for trial := 0; trial < 30; trial++ {
		instances = append(instances, randomDiffInstance(t, rng))
	}

	c := obs.Enable(obs.NewCollector())
	defer obs.Disable()
	solves := 0
	for k, ins := range instances {
		n := ins.M.N()
		runLen, _ := ins.sourceRuns()
		sv := newSSQPPSolver(ins, obs.Rec{})
		for lo := 0; lo < n; lo += runLen {
			sv.ws.ResetWarm()
			for v0 := lo; v0 < min(lo+runLen, n); v0++ {
				name := fmt.Sprintf("instance %d v0=%d", k, v0)
				warm, warmErr := sv.solveLP(v0)
				cold, coldErr := solveSSQPPLP(ins, v0)
				if (warmErr == nil) != (coldErr == nil) {
					t.Fatalf("%s: warm err %v, cold err %v", name, warmErr, coldErr)
				}
				if warmErr != nil {
					continue
				}
				if math.Abs(warm.obj-cold.obj) > 1e-9*math.Abs(cold.obj) {
					t.Fatalf("%s: warm Z* %.17g, cold %.17g", name, warm.obj, cold.obj)
				}
				checkFracFeasible(t, name, ins, warm)
				solves++
			}
		}
	}
	hot := c.Snapshot().Counter("lp.hot_solves")
	if hot == 0 {
		t.Fatalf("no warm solve among %d", solves)
	}
	t.Logf("%d solves over %d instances, %d warm", solves, len(instances), hot)
}

// TestSSQPPPrefixMatchesLegacyOnStructured runs the same cross-check on the
// structured families the benchmarks use, where heavy distance ties make
// class aggregation collapse many ranks.
func TestSSQPPPrefixMatchesLegacyOnStructured(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"broom3", graph.Broom(3)},
		{"broom4", graph.Broom(4)},
		{"star8", graph.Star(8)},
		{"grid3x3", graph.Grid2D(3, 3)},
		{"path5", graph.Path(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := graph.NewMetricFromGraph(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			n := m.N()
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			sys, err := quorum.NewSystem("single", n, [][]int{all})
			if err != nil {
				t.Fatal(err)
			}
			caps := make([]float64, n)
			for i := range caps {
				caps[i] = 1
			}
			ins, err := NewInstance(m, caps, sys, quorum.Uniform(1))
			if err != nil {
				t.Fatal(err)
			}
			for v0 := 0; v0 < n; v0++ {
				got, err := solveSSQPPLP(ins, v0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := solveSSQPPLPLegacy(ins, v0)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.obj-want.obj) > 1e-6 {
					t.Fatalf("v0=%d: Z* mismatch: prefix %.9f, legacy %.9f", v0, got.obj, want.obj)
				}
			}
		})
	}
}
