package gap

import (
	"math"
	"math/rand"
	"testing"
)

func simpleInstance() *Instance {
	// 2 machines, 3 jobs. Machine 0 cheap but tight capacity.
	return &Instance{
		Cost: [][]float64{{1, 1, 1}, {5, 5, 5}},
		Load: [][]float64{{1, 1, 1}, {1, 1, 1}},
		T:    []float64{2, 3},
	}
}

// solveLP is one cold solve of a fresh skeleton, the relaxation's only
// route.
func solveLP(ins *Instance) ([][]float64, float64, error) {
	sk, err := NewSkeleton(ins)
	if err != nil {
		return nil, 0, err
	}
	y, obj, _, err := sk.SolveLP()
	return y, obj, err
}

func TestValidate(t *testing.T) {
	ins := simpleInstance()
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Instance{Cost: [][]float64{{1}}, Load: [][]float64{{1}}, T: []float64{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	neg := &Instance{Cost: [][]float64{{1}}, Load: [][]float64{{-1}}, T: []float64{1}}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative load accepted")
	}
}

func TestSolveLPBasic(t *testing.T) {
	y, obj, err := solveLP(simpleInstance())
	if err != nil {
		t.Fatal(err)
	}
	// Fractional optimum: 2 jobs' worth of mass on machine 0 (cost 1 each),
	// 1 on machine 1: objective 2*1 + 1*5 = 7.
	if math.Abs(obj-7) > 1e-6 {
		t.Fatalf("LP objective = %v, want 7", obj)
	}
	for j := 0; j < 3; j++ {
		sum := y[0][j] + y[1][j]
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("job %d mass = %v, want 1", j, sum)
		}
	}
}

func TestSolveLPForbiddenPair(t *testing.T) {
	ins := simpleInstance()
	ins.Load[0][0] = math.Inf(1) // job 0 cannot go to machine 0
	y, _, err := solveLP(ins)
	if err != nil {
		t.Fatal(err)
	}
	if y[0][0] != 0 {
		t.Fatalf("y[0][0] = %v, want 0 (forbidden)", y[0][0])
	}
}

func TestSolveLPJobWithNoMachine(t *testing.T) {
	ins := simpleInstance()
	ins.Load[0][0] = math.Inf(1)
	ins.Load[1][0] = math.Inf(1)
	if _, _, err := solveLP(ins); err == nil {
		t.Fatal("expected error for job with no allowed machine")
	}
}

func TestSolveLPInfeasibleCapacity(t *testing.T) {
	ins := &Instance{
		Cost: [][]float64{{1, 1}},
		Load: [][]float64{{3, 3}},
		T:    []float64{1},
	}
	if _, _, err := solveLP(ins); err == nil {
		t.Fatal("expected infeasible LP")
	}
}

func TestRoundGuarantees(t *testing.T) {
	ins := simpleInstance()
	y, lpObj, err := solveLP(ins)
	if err != nil {
		t.Fatal(err)
	}
	assign, cost, err := Round(ins, y)
	if err != nil {
		t.Fatal(err)
	}
	if cost > lpObj+1e-6 {
		t.Fatalf("rounded cost %v exceeds LP cost %v", cost, lpObj)
	}
	loads := Loads(ins, assign)
	pmax := MaxFractionalLoad(ins, y)
	for i := range loads {
		if loads[i] > ins.T[i]+pmax[i]+1e-6 {
			t.Fatalf("machine %d load %v exceeds T+pmax = %v", i, loads[i], ins.T[i]+pmax[i])
		}
	}
	// Support property: every job lands on a machine it was fractionally on.
	for j, i := range assign {
		if y[i][j] <= fracTol {
			t.Fatalf("job %d assigned to machine %d with y=0", j, i)
		}
	}
}

func TestRoundRejectsBadFractional(t *testing.T) {
	ins := simpleInstance()
	y := [][]float64{{0.5, 0, 0}, {0.2, 1, 1}} // job 0 mass 0.7
	if _, _, err := Round(ins, y); err == nil {
		t.Fatal("expected mass-sum error")
	}
	y2 := [][]float64{{-0.5, 0, 0}, {1.5, 1, 1}}
	if _, _, err := Round(ins, y2); err == nil {
		t.Fatal("expected negativity error")
	}
}

func TestRoundRespectsForbiddenSupport(t *testing.T) {
	ins := simpleInstance()
	ins.Load[0][1] = math.Inf(1)
	y := [][]float64{{1, 0.5, 0}, {0, 0.5, 1}}
	if _, _, err := Round(ins, y); err == nil {
		t.Fatal("expected error: fractional mass on forbidden pair")
	}
}

func TestRoundIntegralInputIsIdentity(t *testing.T) {
	ins := simpleInstance()
	y := [][]float64{{1, 1, 0}, {0, 0, 1}}
	assign, cost, err := Round(ins, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1}
	for j := range want {
		if assign[j] != want[j] {
			t.Fatalf("assign = %v, want %v", assign, want)
		}
	}
	if math.Abs(cost-7) > 1e-9 {
		t.Fatalf("cost = %v, want 7", cost)
	}
}

func TestSolveEndToEnd(t *testing.T) {
	ins := simpleInstance()
	y, lpObj, err := solveLP(ins)
	if err != nil {
		t.Fatal(err)
	}
	assign, cost, err := Round(ins, y)
	if err != nil {
		t.Fatal(err)
	}
	if cost < lpObj-1e-9 {
		t.Fatalf("integral cost %v below LP bound %v", cost, lpObj)
	}
	if cost > lpObj+1e-6 {
		t.Fatalf("ST rounding cost %v exceeds LP cost %v", cost, lpObj)
	}
	counts := map[int]int{}
	for _, i := range assign {
		counts[i]++
	}
	if counts[0] > 3 { // T+pmax = 2+1 = 3
		t.Fatalf("machine 0 got %d unit jobs, bound is 3", counts[0])
	}
}

// bruteGAP finds the optimal integral assignment respecting capacities T
// exactly (not T+pmax); +Inf if none exists.
func bruteGAP(ins *Instance) float64 {
	m, n := ins.NumMachines(), ins.NumJobs()
	best := math.Inf(1)
	var rec func(j int, used []float64, acc float64)
	rec = func(j int, used []float64, acc float64) {
		if j == n {
			if acc < best {
				best = acc
			}
			return
		}
		for i := 0; i < m; i++ {
			l := ins.Load[i][j]
			if math.IsInf(l, 1) || used[i]+l > ins.T[i]+1e-9 {
				continue
			}
			used[i] += l
			rec(j+1, used, acc+ins.Cost[i][j])
			used[i] -= l
		}
	}
	rec(0, make([]float64, m), 0)
	return best
}

// TestRandomInstancesTheorem311 checks, over random instances, the full
// Theorem 3.11 contract: LP ≤ integral OPT; rounded cost ≤ LP; rounded
// load ≤ T_i + p_i^max ≤ 2 T_i when all loads fit capacities.
func TestRandomInstancesTheorem311(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tested := 0
	for trial := 0; trial < 80; trial++ {
		m := 2 + rng.Intn(3)
		n := 2 + rng.Intn(4)
		ins := &Instance{
			Cost: make([][]float64, m),
			Load: make([][]float64, m),
			T:    make([]float64, m),
		}
		for i := 0; i < m; i++ {
			ins.Cost[i] = make([]float64, n)
			ins.Load[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				ins.Cost[i][j] = math.Round(rng.Float64() * 10)
				ins.Load[i][j] = 1 + math.Round(rng.Float64()*3)
			}
			ins.T[i] = 2 + math.Round(rng.Float64()*6)
		}
		// Enforce the standard ST precondition: p_ij ≤ T_i or forbidden.
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if ins.Load[i][j] > ins.T[i] {
					ins.Load[i][j] = math.Inf(1)
				}
			}
		}
		optInt := bruteGAP(ins)
		y, lpObj, err := solveLP(ins)
		if err != nil {
			// LP infeasible implies no integral solution either.
			if !math.IsInf(optInt, 1) {
				t.Fatalf("trial %d: LP infeasible but integral optimum %v exists", trial, optInt)
			}
			continue
		}
		tested++
		if !math.IsInf(optInt, 1) && lpObj > optInt+1e-6 {
			t.Fatalf("trial %d: LP %v exceeds integral optimum %v", trial, lpObj, optInt)
		}
		assign, cost, err := Round(ins, y)
		if err != nil {
			t.Fatalf("trial %d: rounding failed: %v", trial, err)
		}
		if cost > lpObj+1e-6 {
			t.Fatalf("trial %d: rounded cost %v > LP %v", trial, cost, lpObj)
		}
		loads := Loads(ins, assign)
		pmax := MaxFractionalLoad(ins, y)
		for i := range loads {
			if loads[i] > ins.T[i]+pmax[i]+1e-6 {
				t.Fatalf("trial %d: machine %d load %v > T+pmax %v", trial, i, loads[i], ins.T[i]+pmax[i])
			}
			if loads[i] > 2*ins.T[i]+1e-6 {
				t.Fatalf("trial %d: machine %d load %v > 2T %v", trial, i, loads[i], 2*ins.T[i])
			}
		}
	}
	if tested < 20 {
		t.Fatalf("only %d feasible trials; generator too restrictive", tested)
	}
}

func TestMaxFractionalLoadIgnoresZeroRows(t *testing.T) {
	ins := simpleInstance()
	y := [][]float64{{1, 1, 1}, {0, 0, 0}}
	pmax := MaxFractionalLoad(ins, y)
	if pmax[1] != 0 {
		t.Fatalf("pmax[1] = %v, want 0", pmax[1])
	}
}
