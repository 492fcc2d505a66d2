package eval

import (
	"fmt"
	"math"
	"math/rand"

	"quorumplace/internal/exact"
	"quorumplace/internal/graph"
	"quorumplace/internal/netsim"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// --- E7: Claim A.1 / Figure 1 ----------------------------------------------

// singleQuorumInstance builds the Appendix A instance: one quorum
// containing all n elements (so every element has load 1) on the given
// graph, with unit capacity at every node — forcing a bijection.
func singleQuorumInstance(g *graph.Graph) (*placement.Instance, error) {
	n := g.N()
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		return nil, err
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	sys, err := quorum.NewSystem("single", n, [][]int{all})
	if err != nil {
		return nil, err
	}
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1
	}
	return placement.NewInstance(m, caps, sys, quorum.Uniform(1))
}

// E7IntegralityGap reproduces Claim A.1 and Figure 1: the LP relaxation
// (9)–(14) has integrality gap ≈ n on a star with one long edge and ≈ √n on
// the unweighted "broom" graph of Figure 1. The integral optimum is known
// analytically for both constructions (every feasible placement is a
// bijection, so the single quorum's delay is the largest distance from v0).
func (s *Suite) E7IntegralityGap() (*Table, error) {
	t := &Table{
		ID:       "E7",
		Title:    "Integrality gap of the SSQPP LP on the Appendix-A instances",
		PaperRef: "Claim A.1 + Figure 1: gap ≥ n (weighted star), ≥ Θ(√n) (broom)",
		Columns:  []string{"construction", "n", "integral OPT", "LP Z*", "gap OPT/Z*", "predicted gap"},
	}
	// Weighted star: spokes of length 1, one spoke of length M = n².
	starSizes := []int{4, 6, 8}
	if s.Quick {
		starSizes = []int{4, 6}
	}
	for _, n := range starSizes {
		mLen := float64(n * n)
		g := graph.StarWithLongEdge(n, mLen)
		ins, err := singleQuorumInstance(g)
		if err != nil {
			return nil, err
		}
		lpZ, err := placement.SSQPPLowerBound(ins, 0)
		if err != nil {
			return nil, err
		}
		opt := mLen // the far node must host an element
		t.AddRow("weighted star (M=n²)", fmt.Sprint(n), F(opt), F(lpZ), F(opt/lpZ), fmt.Sprintf("≈ n·M/(n-1+M) = %s", F(float64(n)*mLen/(float64(n)-1+mLen))))
	}
	// Broom (Figure 1): n = k² nodes, integral OPT = k, LP ≈ 3/2.
	ks := []int{3, 4, 5, 6}
	if s.Quick {
		ks = []int{3, 4}
	}
	for _, k := range ks {
		g := graph.Broom(k)
		ins, err := singleQuorumInstance(g)
		if err != nil {
			return nil, err
		}
		lpZ, err := placement.SSQPPLowerBound(ins, 0)
		if err != nil {
			return nil, err
		}
		opt := float64(k)
		t.AddRow("broom (Figure 1)", fmt.Sprint(k*k), F(opt), F(lpZ), F(opt/lpZ), fmt.Sprintf("≈ √n·(2/3) = %s", F(float64(k)*2/3)))
	}
	t.Notes = append(t.Notes,
		"integral OPT is analytic: unit capacities force a bijection, so the delay is the largest distance from v0",
		"broom LP value tends to 3/2, so the gap grows as (2/3)·√n, matching the paper's Θ(√n)")
	return t, nil
}

// --- E8: Theorem B.1 / Figure 2 --------------------------------------------

// E8GridLayout verifies the L-shell grid layout: it matches brute force for
// k ≤ 3 and never loses to greedy heuristics for larger k.
func (s *Suite) E8GridLayout() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 8))
	t := &Table{
		ID:       "E8",
		Title:    "Grid L-shell layout vs alternatives",
		PaperRef: "Theorem B.1 + Figure 2 (§4.1 layout is optimal)",
		Columns:  []string{"k", "distance profile", "shell cost", "comparator", "comparator cost", "shell optimal"},
	}
	bruteKs := []int{2, 3}
	for _, k := range bruteKs {
		for trial := 0; trial < s.trials(2, 4); trial++ {
			taus := make([]float64, k*k)
			for i := range taus {
				taus[i] = math.Round(rng.Float64() * 9)
			}
			shell := shellCost(k, taus)
			brute := placement.BruteForceGridLayout(taus)
			ok := "yes"
			if shell > brute+1e-9 {
				ok = "NO"
			}
			t.AddRow(fmt.Sprint(k), "random ints [0,9]", F(shell), "brute force (all arrangements)", F(brute), ok)
		}
	}
	bigKs := []int{4, 5, 6}
	if s.Quick {
		bigKs = []int{4}
	}
	for _, k := range bigKs {
		taus := make([]float64, k*k)
		for i := range taus {
			taus[i] = math.Round(rng.Float64() * 99)
		}
		shell := shellCost(k, taus)
		rowMajor := rowMajorCost(k, taus)
		ok := "yes"
		if shell > rowMajor+1e-9 {
			ok = "NO"
		}
		t.AddRow(fmt.Sprint(k), "random ints [0,99]", F(shell), "row-major descending", F(rowMajor), ok)
	}
	t.Notes = append(t.Notes, "row-major places τ1..τk in row 1 etc.; the shell layout is never worse and usually strictly better")
	return t, nil
}

func shellCost(k int, taus []float64) float64 {
	sorted := append([]float64(nil), taus...)
	insertionSortDesc(sorted)
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
	}
	for i, cell := range placement.GridShellOrder(k) {
		m[cell[0]][cell[1]] = sorted[i]
	}
	return placement.GridLayoutCost(m)
}

func rowMajorCost(k int, taus []float64) float64 {
	sorted := append([]float64(nil), taus...)
	insertionSortDesc(sorted)
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
		copy(m[i], sorted[i*k:(i+1)*k])
	}
	return placement.GridLayoutCost(m)
}

func insertionSortDesc(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// --- E9: Eq. (19) ------------------------------------------------------------

// E9MajorityFormula checks the Majority closed form against direct
// evaluation and demonstrates arrangement invariance.
func (s *Suite) E9MajorityFormula() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 9))
	t := &Table{
		ID:       "E9",
		Title:    "Majority closed form and arrangement invariance",
		PaperRef: "§4.2 Eq. (19)",
		Columns:  []string{"n", "t", "Eq.19", "direct Δ", "max |Δ - Eq.19| over arrangements", "invariant"},
	}
	cases := [][2]int{{4, 3}, {5, 3}, {6, 4}}
	if s.Quick {
		cases = [][2]int{{4, 3}, {5, 3}}
	}
	for _, c := range cases {
		nU, th := c[0], c[1]
		sys := quorum.Majority(nU, th)
		st := quorum.Uniform(sys.NumQuorums())
		g := graph.RandomTree(nU+3, 1, 5, rng)
		m, err := graph.NewMetricFromGraph(g)
		if err != nil {
			return nil, err
		}
		load := float64(th) / float64(nU)
		caps := make([]float64, g.N())
		for i := range caps {
			caps[i] = load
		}
		ins, err := placement.NewInstance(m, caps, sys, st)
		if err != nil {
			return nil, err
		}
		res, err := placement.SolveMajoritySSQPP(ins, 0, th)
		if err != nil {
			return nil, err
		}
		maxDev := math.Abs(res.Delay - res.Formula)
		f := res.Placement.Map()
		for trial := 0; trial < s.trials(5, 30); trial++ {
			rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
			d := ins.MaxDelayFrom(0, placement.NewPlacement(f))
			if dev := math.Abs(d - res.Formula); dev > maxDev {
				maxDev = dev
			}
		}
		inv := "yes"
		if maxDev > 1e-9 {
			inv = "NO"
		}
		t.AddRow(fmt.Sprint(nU), fmt.Sprint(th), F(res.Formula), F(res.Delay), F(maxDev), inv)
	}
	return t, nil
}

// --- E10: §6 extensions ------------------------------------------------------

// E10Extensions exercises the §6 generalizations: per-client strategies
// solved through the averaged strategy, and non-uniform client rates.
func (s *Suite) E10Extensions() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 10))
	t := &Table{
		ID:       "E10",
		Title:    "Per-client strategies and non-uniform rates",
		PaperRef: "§6 extensions of Theorem 1.2",
		Columns:  []string{"variant", "instances", "worst obj/OPT", "bound 5α/(α-1) (α=2)", "worst load factor", "bound α+1"},
	}
	trials := s.trials(2, 6)
	alpha := 2.0

	// Variant 1: per-client strategies, uniform rates.
	worst, worstLoad := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		sysC := smallSystems()[trial%len(smallSystems())]
		fam := families()[trial%len(families())]
		n := 5 + rng.Intn(2)
		g := fam.gen(n, rng)
		// Draw the strategies before planting capacities, so the planted
		// placement fits their average: planted for the uniform strategy,
		// it could overflow the averaged loads and leave the brute force
		// and the LP without a feasible placement.
		per := randomStrategies(n, sysC.sys.NumQuorums(), rng)
		ins, err := makePerClientInstance(g, sysC.sys, per, rng)
		if err != nil {
			return nil, err
		}
		res, err := placement.SolveQPPAveragedStrategies(ins, per, alpha)
		if err != nil {
			return nil, err
		}
		obj, err := ins.AvgMaxDelayPerClient(per, res.Placement)
		if err != nil {
			return nil, err
		}
		opt, err := bruteForcePerClient(ins, per)
		if err != nil {
			return nil, err
		}
		if opt > 0 {
			if r := obj / opt; r > worst {
				worst = r
			}
		}
		if lf := ins.CapacityViolation(res.Placement); lf > worstLoad {
			worstLoad = lf
		}
	}
	t.AddRow("per-client strategies", fmt.Sprint(trials), F(worst), F(5*alpha/(alpha-1)), F(worstLoad), F(alpha+1))

	// Variant 2: uniform strategy, non-uniform rates.
	worst, worstLoad = 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		sysC := smallSystems()[trial%len(smallSystems())]
		fam := families()[trial%len(families())]
		n := 5 + rng.Intn(2)
		ins, err := makeInstance(fam.gen(n, rng), sysC.sys, rng)
		if err != nil {
			return nil, err
		}
		rates := make([]float64, n)
		for v := range rates {
			rates[v] = 0.2 + rng.Float64()*3
		}
		if err := ins.SetRates(rates); err != nil {
			return nil, err
		}
		res, err := placement.SolveQPP(ins, alpha)
		if err != nil {
			return nil, err
		}
		_, opt, err := exact.SolveQPP(ins)
		if err != nil {
			return nil, err
		}
		if opt > 0 {
			if r := res.AvgMaxDelay / opt; r > worst {
				worst = r
			}
		}
		if lf := ins.CapacityViolation(res.Placement); lf > worstLoad {
			worstLoad = lf
		}
	}
	t.AddRow("weighted client rates", fmt.Sprint(trials), F(worst), F(5*alpha/(alpha-1)), F(worstLoad), F(alpha+1))
	return t, nil
}

// randomStrategies draws one access strategy over m quorums per client.
func randomStrategies(n, m int, rng *rand.Rand) []quorum.Strategy {
	out := make([]quorum.Strategy, n)
	for v := 0; v < n; v++ {
		p := make([]float64, m)
		sum := 0.0
		for i := range p {
			p[i] = 0.1 + rng.Float64()
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		st, err := quorum.NewStrategy(p)
		if err != nil {
			panic(err) // normalized by construction
		}
		out[v] = st
	}
	return out
}

// bruteForcePerClient enumerates capacity-feasible placements and evaluates
// the per-client objective; feasibility is measured against the averaged
// strategy's loads, matching the solver's load model.
func bruteForcePerClient(ins *placement.Instance, per []quorum.Strategy) (float64, error) {
	avg, err := placement.AverageStrategies(ins, per)
	if err != nil {
		return 0, err
	}
	avgIns, err := placement.NewInstance(ins.M, ins.Cap, ins.Sys, avg)
	if err != nil {
		return 0, err
	}
	best := math.Inf(1)
	err = forEachFeasible(avgIns, func(p placement.Placement) error {
		obj, err := avgIns.AvgMaxDelayPerClient(per, p)
		if err != nil {
			return err
		}
		if obj < best {
			best = obj
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("eval: no feasible placement for per-client brute force")
	}
	return best, nil
}

// forEachFeasible enumerates every capacity-feasible placement of small
// instances (|V|^|U| search with capacity pruning).
func forEachFeasible(ins *placement.Instance, visit func(placement.Placement) error) error {
	nU := ins.Sys.Universe()
	n := ins.M.N()
	if nU > 8 {
		return fmt.Errorf("eval: universe %d too large for enumeration", nU)
	}
	f := make([]int, nU)
	remaining := append([]float64(nil), ins.Cap...)
	var rec func(u int) error
	rec = func(u int) error {
		if u == nU {
			return visit(placement.NewPlacement(f))
		}
		load := ins.Load(u)
		for v := 0; v < n; v++ {
			if remaining[v]+1e-9 < load {
				continue
			}
			f[u] = v
			remaining[v] -= load
			if err := rec(u + 1); err != nil {
				return err
			}
			remaining[v] += load
		}
		return nil
	}
	return rec(0)
}

// --- E11: netsim validation --------------------------------------------------

// E11Netsim compares the analytic delay evaluators with the discrete-event
// simulator on a geometric WAN stand-in.
func (s *Suite) E11Netsim() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 11))
	t := &Table{
		ID:       "E11",
		Title:    "Analytic vs simulated access delay (geometric WAN)",
		PaperRef: "§1 motivation; validates Eq. (2) and the §5 objective",
		Columns:  []string{"system", "mode", "analytic", "simulated", "rel err", "max |load err|"},
	}
	accesses := s.trials(800, 8000)
	type cfg struct {
		name string
		sys  *quorum.System
	}
	cfgs := []cfg{
		{"grid-2x2", quorum.Grid(2)},
		{"majority-3of5", quorum.Majority(5, 3)},
	}
	for _, c := range cfgs {
		n := 12
		g := graph.RandomGeometric(n, 0.4, rng)
		ins, err := makeInstance(g, c.sys, rng)
		if err != nil {
			return nil, err
		}
		p, err := placement.BestGreedyPlacement(ins)
		if err != nil {
			return nil, err
		}
		for _, mode := range []netsim.Mode{netsim.Parallel, netsim.Sequential} {
			stats, err := netsim.Run(netsim.Config{
				Instance:          ins,
				Placement:         p,
				Mode:              mode,
				AccessesPerClient: accesses,
				Seed:              s.Seed + 1100,
				Recorder:          s.Recorder,
				Heat:              s.Heat,
				Workers:           s.SimWorkers,
			})
			if err != nil {
				return nil, err
			}
			var analytic float64
			if mode == netsim.Parallel {
				analytic = ins.AvgMaxDelay(p)
			} else {
				analytic = ins.AvgTotalDelay(p)
			}
			rel := 0.0
			if analytic > 0 {
				rel = math.Abs(stats.AvgLatency-analytic) / analytic
			}
			maxLoadErr := 0.0
			for v, want := range ins.NodeLoads(p) {
				if e := math.Abs(stats.EmpiricalLoad[v] - want); e > maxLoadErr {
					maxLoadErr = e
				}
			}
			t.AddRow(c.name, mode.String(), F(analytic), F(stats.AvgLatency), F(rel), F(maxLoadErr))
		}
	}
	return t, nil
}
