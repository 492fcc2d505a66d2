package placement_test

import (
	"math"
	"math/rand"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func TestOptimizeStrategyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	ins := randomInstance(t, rng)
	if _, _, err := placement.OptimizeStrategyForPlacement(ins, placement.NewPlacement([]int{0})); err == nil {
		t.Fatal("short placement accepted")
	}
}

// TestOptimizeStrategyNeverWorse: the optimized strategy's objective is at
// most the current strategy's, whenever the current strategy is itself
// capacity-feasible for the placement.
func TestOptimizeStrategyNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	checked := 0
	for trial := 0; trial < 15 && checked < 8; trial++ {
		ins := randomInstance(t, rng)
		p, err := placement.RandomFeasiblePlacement(ins, rng, 100)
		if err != nil {
			t.Fatal(err)
		}
		// The current (uniform/random) strategy is feasible by
		// construction: NodeLoads ≤ cap.
		before := ins.AvgMaxDelay(p)
		st, obj, err := placement.OptimizeStrategyForPlacement(ins, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if obj > before+1e-6 {
			t.Fatalf("trial %d: optimized objective %v worse than current %v", trial, obj, before)
		}
		// The reported objective matches a direct evaluation under the new
		// strategy.
		ins2, err := placement.NewInstance(ins.M, ins.Cap, ins.Sys, st)
		if err != nil {
			t.Fatal(err)
		}
		if got := ins2.AvgMaxDelay(p); math.Abs(got-obj) > 1e-6 {
			t.Fatalf("trial %d: LP says %v, evaluation gives %v", trial, obj, got)
		}
		// The induced loads respect capacities.
		if !ins2.Feasible(p) {
			t.Fatalf("trial %d: optimized strategy violates capacities", trial)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no feasible trials")
	}
}

// TestOptimizeStrategyHandChecked: two quorums, one far and one near; with
// ample capacity the optimizer puts all mass on the near quorum.
func TestOptimizeStrategyHandChecked(t *testing.T) {
	m := mustMetric(t, graph.Path(4))
	sys, err := quorum.NewSystem("two", 3, [][]int{{0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := quorum.Uniform(2)
	ins, err := placement.NewInstance(m, uniformCaps(4, 10), sys, st)
	if err != nil {
		t.Fatal(err)
	}
	// e0 on node 0, e1 on node 1 (near), e2 on node 3 (far).
	p := placement.NewPlacement([]int{0, 1, 3})
	opt, obj, err := placement.OptimizeStrategyForPlacement(ins, p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.P(0) < 1-1e-6 {
		t.Fatalf("optimizer kept mass %v on the far quorum", opt.P(1))
	}
	// Objective = Avg_v max(d(v,0), d(v,1)) over the path 0-1-2-3:
	// v=0: 1, v=1: 1, v=2: 2... d(2,0)=2 d(2,1)=1 → 2; v=3: 3.
	want := (1.0 + 1 + 2 + 3) / 4
	if math.Abs(obj-want) > 1e-6 {
		t.Fatalf("objective %v, want %v", obj, want)
	}
}

// TestOptimizeStrategyCapacityBinds: with a tight capacity on the near
// node, mass must spill to the far quorum.
func TestOptimizeStrategyCapacityBinds(t *testing.T) {
	m := mustMetric(t, graph.Path(4))
	sys, err := quorum.NewSystem("two", 3, [][]int{{0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := placement.NewInstance(m, []float64{10, 0.4, 10, 10}, sys, quorum.Uniform(2))
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewPlacement([]int{0, 1, 3})
	opt, _, err := placement.OptimizeStrategyForPlacement(ins, p)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 hosts only e1 ∈ Q0, so p(Q0) ≤ 0.4.
	if opt.P(0) > 0.4+1e-6 {
		t.Fatalf("capacity constraint violated: p(Q0) = %v > 0.4", opt.P(0))
	}
	if math.Abs(opt.P(0)+opt.P(1)-1) > 1e-9 {
		t.Fatalf("not a distribution: %v", opt.Probs())
	}
}

func TestOptimizeStrategyInfeasible(t *testing.T) {
	m := mustMetric(t, graph.Path(3))
	sys, err := quorum.NewSystem("one", 2, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Single quorum forces p = 1 and hence load 1 on each element's node;
	// cap 0.5 everywhere makes that infeasible.
	ins, err := placement.NewInstance(m, uniformCaps(3, 0.5), sys, quorum.Uniform(1))
	if err == nil {
		p := placement.NewPlacement([]int{0, 1})
		if _, _, err := placement.OptimizeStrategyForPlacement(ins, p); err == nil {
			t.Fatal("expected infeasible strategy LP")
		}
	}
}

// TestOptimizePerClientStrategies: per-client freedom never loses to the
// single shared optimal strategy, the returned strategies are valid, and
// the induced average-strategy loads respect capacities.
func TestOptimizePerClientStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 6; trial++ {
		ins := randomInstance(t, rng)
		p, err := placement.RandomFeasiblePlacement(ins, rng, 100)
		if err != nil {
			t.Fatal(err)
		}
		_, shared, err := placement.OptimizeStrategyForPlacement(ins, p)
		if err != nil {
			t.Fatal(err)
		}
		per, obj, err := placement.OptimizePerClientStrategies(ins, p)
		if err != nil {
			t.Fatal(err)
		}
		if obj > shared+1e-6 {
			t.Fatalf("trial %d: per-client objective %v worse than shared %v", trial, obj, shared)
		}
		// Objective matches direct evaluation.
		got, err := ins.AvgMaxDelayPerClient(per, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-obj) > 1e-6 {
			t.Fatalf("trial %d: LP %v, evaluation %v", trial, obj, got)
		}
		// Average strategy respects capacities.
		avg, err := placement.AverageStrategies(ins, per)
		if err != nil {
			t.Fatal(err)
		}
		insAvg, err := placement.NewInstance(ins.M, ins.Cap, ins.Sys, avg)
		if err != nil {
			t.Fatal(err)
		}
		if !insAvg.Feasible(p) {
			t.Fatalf("trial %d: average strategy violates capacities", trial)
		}
	}
}

// TestPerClientUnconstrainedPicksNearest: with ample capacity each client
// concentrates on its delay-minimal quorum.
func TestPerClientUnconstrainedPicksNearest(t *testing.T) {
	m := mustMetric(t, graph.Path(4))
	sys, err := quorum.NewSystem("two", 3, [][]int{{0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := placement.NewInstance(m, uniformCaps(4, 100), sys, quorum.Uniform(2))
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewPlacement([]int{0, 1, 3})
	per, _, err := placement.OptimizePerClientStrategies(ins, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		d0 := ins.QuorumMaxDelay(v, 0, p)
		d1 := ins.QuorumMaxDelay(v, 1, p)
		if d0 < d1-1e-9 && per[v].P(0) < 1-1e-6 {
			t.Fatalf("client %d: quorum 0 cheaper (%v vs %v) but p=%v", v, d0, d1, per[v].P(0))
		}
		if d1 < d0-1e-9 && per[v].P(1) < 1-1e-6 {
			t.Fatalf("client %d: quorum 1 cheaper but p=%v", v, per[v].P(1))
		}
	}
}
