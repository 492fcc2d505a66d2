package migrate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"quorumplace/internal/check"
	"quorumplace/internal/placement"
)

// TestPlannerMatchesSolveBitwise checks that a reused full-universe
// planner, once ResetWarm, reproduces a fresh Solve bit for bit: before
// each compared Plan the planner solves warm under another λ and under
// halved residual capacities, so any cost or budget left over from an
// earlier solve would show.
func TestPlannerMatchesSolveBitwise(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		ci := check.Gen(seed)
		old := ci.Planted
		pl, err := NewPlanner(ci.Instance, nil)
		if err != nil {
			t.Fatalf("seed %d: NewPlanner: %v", seed, err)
		}
		half := make([]float64, len(ci.Cap))
		for v, c := range ci.Cap {
			half[v] = c / 2
		}
		for k, lambda := range []float64{0, 0.7, 3} {
			want, err := Solve(ci.Instance, old, lambda)
			if err != nil {
				t.Fatalf("seed %d λ=%v: Solve: %v", seed, lambda, err)
			}
			if k > 0 {
				// Dirty the planner; the result (and a possible
				// infeasibility under halved budgets) does not matter.
				_, _ = pl.Solve(old, lambda+1, half)
				pl.ResetWarm()
			}
			got, warm, err := pl.Plan(old, lambda)
			if err != nil {
				t.Fatalf("seed %d λ=%v: Plan: %v", seed, lambda, err)
			}
			if warm {
				t.Fatalf("seed %d λ=%v: planner solve after ResetWarm claimed warm", seed, lambda)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d λ=%v: planner plan differs from Solve:\n got %+v\nwant %+v",
					seed, lambda, got, want)
			}
		}
	}
}

// TestPlannerWarmRepeated re-plans with drifting rates through one planner
// and checks each warm result against a fresh package-level Solve: equal
// LP bound (the combined-objective lower bound is vertex-independent) and
// a no-worse combined objective, plus the 2·cap load guarantee.
func TestPlannerWarmRepeated(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	ins, old := buildInstance(t, rng)
	pl, err := NewPlanner(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := ins.M.N()
	warmCount := 0
	cur := old
	for iter := 0; iter < 8; iter++ {
		rates := make([]float64, n)
		for v := range rates {
			rates[v] = 0.5 + rng.Float64()
		}
		if err := ins.SetRates(rates); err != nil {
			t.Fatal(err)
		}
		plan, warm, err := pl.Plan(cur, 0.5)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if warm {
			warmCount++
		}
		ref, err := Solve(ins, cur, 0.5)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", iter, err)
		}
		if math.Abs(plan.LPBound-ref.LPBound) > 1e-6*(1+math.Abs(ref.LPBound)) {
			t.Fatalf("iter %d (warm=%v): LP bound %v != reference %v", iter, warm, plan.LPBound, ref.LPBound)
		}
		combined := plan.AvgDelay + 0.5*plan.Moved
		if combined < plan.LPBound-1e-6 {
			t.Fatalf("iter %d: combined objective %v below its LP bound %v", iter, combined, plan.LPBound)
		}
		for v, l := range ins.NodeLoads(plan.Placement) {
			if l > 2*ins.Cap[v]+1e-6 {
				t.Fatalf("iter %d: node %d load %v exceeds 2·cap", iter, v, l)
			}
		}
		cur = plan.Placement
	}
	if warmCount == 0 {
		t.Fatal("no re-plan took the warm path")
	}
}

// TestPlannerShard checks subset planning under residual capacities: the
// shard solve must leave non-shard elements untouched, produce nodes for
// exactly the shard's elements, and respect the residual budgets in the
// LP sense (integral overshoot bounded by one element per node).
func TestPlannerShard(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	ins, old := buildInstance(t, rng)
	nU := ins.Sys.Universe()
	var shard []int
	for u := 0; u < nU; u += 2 {
		shard = append(shard, u)
	}
	pl, err := NewPlanner(ins, shard)
	if err != nil {
		t.Fatal(err)
	}
	inShard := make(map[int]bool, len(shard))
	for _, u := range shard {
		inShard[u] = true
	}
	// Residual capacities: full caps minus the load of incumbent non-shard
	// elements, clamped at zero.
	resid := append([]float64(nil), ins.Cap...)
	for u := 0; u < nU; u++ {
		if !inShard[u] {
			resid[old.Node(u)] -= ins.Load(u)
		}
	}
	for v := range resid {
		if resid[v] < 0 {
			resid[v] = 0
		}
	}
	sp, err := pl.Solve(old, 0.5, resid)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Nodes) != len(shard) || !reflect.DeepEqual(sp.Elems, shard) {
		t.Fatalf("shard plan shape: %d nodes for %d elements", len(sp.Nodes), len(shard))
	}
	// Compose the full placement and check the per-node load bound
	// resid + p_max ≤ cap + p_max ≤ 2·cap.
	f := old.Map()
	for i, u := range shard {
		f[u] = sp.Nodes[i]
	}
	full := placement.NewPlacement(f)
	if err := ins.Validate(full); err != nil {
		t.Fatal(err)
	}
	for v, l := range ins.NodeLoads(full) {
		if l > 2*ins.Cap[v]+1e-6 {
			t.Fatalf("node %d load %v exceeds 2·cap %v", v, l, 2*ins.Cap[v])
		}
	}
	// Plan() is reserved for full-universe planners.
	if _, _, err := pl.Plan(old, 0.5); err == nil {
		t.Fatal("Plan on a shard planner accepted")
	}
}

// TestPlannerValidation covers the constructor and solve edge cases.
func TestPlannerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	ins, old := buildInstance(t, rng)
	if _, err := NewPlanner(ins, []int{0, 0}); err == nil {
		t.Fatal("duplicate element accepted")
	}
	if _, err := NewPlanner(ins, []int{-1}); err == nil {
		t.Fatal("negative element accepted")
	}
	if _, err := NewPlanner(ins, []int{ins.Sys.Universe()}); err == nil {
		t.Fatal("out-of-range element accepted")
	}
	if _, err := NewPlanner(ins, []int{}); err == nil {
		t.Fatal("empty element list accepted")
	}
	pl, err := NewPlanner(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Solve(old, -1, nil); err == nil {
		t.Fatal("negative lambda accepted")
	}
	if _, err := pl.Solve(old, math.NaN(), nil); err == nil {
		t.Fatal("NaN lambda accepted")
	}
	if _, err := pl.Solve(old, 1, []float64{1}); err == nil {
		t.Fatal("short capacity vector accepted")
	}
	if _, err := pl.Solve(placement.NewPlacement([]int{0}), 1, nil); err == nil {
		t.Fatal("short placement accepted")
	}
}
