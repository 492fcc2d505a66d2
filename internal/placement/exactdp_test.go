package placement

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/quorum"
	"quorumplace/internal/treedp"
)

// bigTreeInstance builds an instance above the exact-DP auto-gate floor:
// an n-node random tree metric with a Majority(5,3) system and capacities
// loose enough that many placements are feasible but tight enough that
// elements still contend.
func bigTreeInstance(t *testing.T, n int, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomTree(n, 0.2, 2.0, rng)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Majority(5, 3)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.4 + rng.Float64()
	}
	ins, err := NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestExactDPAutoGate(t *testing.T) {
	big := bigTreeInstance(t, exactDPMinNodes, 1)
	if !big.exactDPAuto() {
		t.Fatalf("%d nodes with universe %d must take the DP path", exactDPMinNodes, big.Sys.Universe())
	}
	small := bigTreeInstance(t, exactDPMinNodes-1, 1)
	if small.exactDPAuto() {
		t.Fatal("instances below the node floor must stay on the LP pipeline")
	}

	// A 16-element universe clears the treedp hard limit but not the ops
	// budget at gate-eligible sizes: n·3^16 > exactDPOpsBudget for n ≥ 64.
	wide := make([]int, treedp.MaxUniverse)
	for i := range wide {
		wide[i] = i
	}
	sys, err := quorum.NewSystem("wide", treedp.MaxUniverse, [][]int{wide})
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, exactDPMinNodes)
	for i := range caps {
		caps[i] = float64(treedp.MaxUniverse)
	}
	rng := rand.New(rand.NewSource(2))
	m, err := graph.NewMetricFromGraph(graph.RandomTree(exactDPMinNodes, 0.2, 2.0, rng))
	if err != nil {
		t.Fatal(err)
	}
	ins, err := NewInstance(m, caps, sys, quorum.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	if ins.exactDPAuto() {
		t.Fatalf("estimated ops %v exceed the budget %v; gate must reject", treedp.EstimatedOps(exactDPMinNodes, treedp.MaxUniverse), exactDPOpsBudget)
	}
}

func TestSolveSSQPPExactValidation(t *testing.T) {
	ins := bigTreeInstance(t, 16, 3)
	if _, err := SolveSSQPPExact(ins, 0, 1); err == nil {
		t.Fatal("alpha = 1 must be rejected")
	}
	if _, err := SolveSSQPPExact(ins, ins.M.N(), 2); err == nil {
		t.Fatal("out-of-range source must be rejected")
	}
}

// Above the gate, SolveSSQPP must return exactly what SolveSSQPPExact
// returns — optimal, feasible, and self-consistent — and must dominate the
// LP pipeline run on the same source: at least the LP lower bound, at most
// any capacity-respecting rounded placement.
func TestAutoSSQPPMatchesExactAtScale(t *testing.T) {
	const alpha = 2.0
	for seed := int64(1); seed <= 4; seed++ {
		ins := bigTreeInstance(t, 64+int(seed)*7, seed)
		if !ins.exactDPAuto() {
			t.Fatal("test instance must be gate-eligible")
		}
		for _, v0 := range []int{0, ins.M.N() / 2, ins.M.N() - 1} {
			auto, err := SolveSSQPP(ins, v0, alpha)
			if err != nil {
				t.Fatalf("seed %d v0=%d: %v", seed, v0, err)
			}
			exact, err := SolveSSQPPExact(ins, v0, alpha)
			if err != nil {
				t.Fatalf("seed %d v0=%d: %v", seed, v0, err)
			}
			if !reflect.DeepEqual(auto, exact) {
				t.Fatalf("seed %d v0=%d: auto route diverges from explicit exact solve:\n  auto  %+v\n  exact %+v", seed, v0, auto, exact)
			}
			if !ins.Feasible(exact.Placement) {
				t.Fatalf("seed %d v0=%d: exact placement violates capacities", seed, v0)
			}
			if d := ins.MaxDelayFrom(v0, exact.Placement); math.Abs(d-exact.Delay) > 1e-9*(1+d) {
				t.Fatalf("seed %d v0=%d: Delay %v, recomputed %v", seed, v0, exact.Delay, d)
			}
			if math.Abs(exact.Delay-exact.LPBound) > 1e-9*(1+exact.Delay) {
				t.Fatalf("seed %d v0=%d: exact result must carry its optimum as LPBound: Delay %v, LPBound %v", seed, v0, exact.Delay, exact.LPBound)
			}

			// LP relaxation on the same source: Z* lower-bounds the optimum,
			// and a capacity-respecting rounded placement cannot beat it.
			// The LP at this size is exactly what the fast path avoids
			// (seconds per solve), so cross-check one source per sweep.
			if seed != 1 || v0 != 0 {
				continue
			}
			sv := newSSQPPSolver(ins)
			frac, err := sv.solveLP(v0)
			if err != nil {
				t.Fatalf("seed %d v0=%d: LP: %v", seed, v0, err)
			}
			if exact.Delay < frac.obj-1e-6*(1+frac.obj) {
				t.Fatalf("seed %d v0=%d: exact optimum %v below LP bound %v", seed, v0, exact.Delay, frac.obj)
			}
			pl, err := sv.roundFiltered(frac, filter(frac.xu, alpha), alpha)
			if err != nil {
				t.Fatalf("seed %d v0=%d: rounding: %v", seed, v0, err)
			}
			if ins.Feasible(pl) {
				if lpDelay := ins.MaxDelayFrom(v0, pl); exact.Delay > lpDelay+1e-9*(1+lpDelay) {
					t.Fatalf("seed %d v0=%d: exact delay %v loses to feasible LP rounding %v", seed, v0, exact.Delay, lpDelay)
				}
			}
		}
	}
}

// The DP fast path must not perturb the parallel/sequential QPP identity:
// above the gate both sweeps route every source through the DP and must
// stay bitwise equal.
func TestQPPParallelMatchesSequentialWithExactDP(t *testing.T) {
	ins := bigTreeInstance(t, 70, 9)
	if !ins.exactDPAuto() {
		t.Fatal("test instance must be gate-eligible")
	}
	seq, err := SolveQPP(ins, 2)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveQPPParallel(ins, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel/sequential divergence with the DP fast path:\n  sequential %+v\n  parallel   %+v", seq, par)
	}
}

// On the exact-DP route no source reaches the LP, so the parallel sweep
// must not build an LP skeleton — the instance's model cache stays empty —
// and has nothing to warm-start, so every source is a claimable run of its
// own.
func TestQPPParallelExactDPBuildsNoLPModel(t *testing.T) {
	ins := bigTreeInstance(t, 70, 9)
	if !ins.exactDPAuto() {
		t.Fatal("test instance must be gate-eligible")
	}
	if runLen, runs := ins.sourceRuns(); runLen != 1 || runs != ins.M.N() {
		t.Fatalf("DP-routed sweep cut into %d runs of %d, want %d of 1", runs, runLen, ins.M.N())
	}
	if _, err := SolveQPPParallel(ins, 2, 3); err != nil {
		t.Fatal(err)
	}
	if m := ins.models.Load(); m != nil && len(*m) > 0 {
		t.Fatalf("DP-routed sweep built %d LP skeleton(s)", len(*m))
	}
}
