package eval

import (
	"fmt"
	"math"
	"math/rand"

	"quorumplace/internal/exact"
	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/netsim"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
	"quorumplace/internal/sched"
)

// Suite configures an experiment run. Quick mode shrinks instance counts
// and sizes so the whole suite runs in seconds (used by tests); the full
// mode is what cmd/qppeval runs to regenerate EXPERIMENTS.md.
type Suite struct {
	Seed  int64
	Quick bool
	// ScaleNodes/ScaleClients, when positive, append an extra E18 row with
	// the overridden dimensions (cmd/qppeval -scale-nodes/-scale-clients),
	// so the headline 10⁵-node/10⁶-client configuration runs on demand
	// without every full suite run paying for it.
	ScaleNodes   int
	ScaleClients int
	// SimWorkers is passed to every discrete-event simulation the
	// experiments run (netsim Config.Workers): 0 runs one worker, and the
	// output is bitwise identical for every worker count.
	SimWorkers int
	// Recorder, when non-nil, is attached to every discrete-event
	// simulation the experiments run (netsim Config.Recorder), so one
	// suite's access traces land in one recorder.
	Recorder *netsim.Recorder
	// Heat, when non-nil, is attached to every simulation that does not
	// feed a sketch of its own (netsim Config.Heat; E19 and E21 keep
	// theirs), folding the suite's simulated accesses into one sketch.
	Heat *heat.Sketch
}

// trials returns quick or full trial counts.
func (s *Suite) trials(quick, full int) int {
	if s.Quick {
		return quick
	}
	return full
}

// Experiment is one runnable experiment.
type Experiment struct {
	ID  string
	Run func(*Suite) (*Table, error)
}

// Experiments lists the full suite in order.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", (*Suite).E1Theorem12},
		{"E2", (*Suite).E2Theorem13},
		{"E3", (*Suite).E3TotalDelay},
		{"E4", (*Suite).E4SSQPP},
		{"E5", (*Suite).E5Relay},
		{"E6", (*Suite).E6Reduction},
		{"E7", (*Suite).E7IntegralityGap},
		{"E8", (*Suite).E8GridLayout},
		{"E9", (*Suite).E9MajorityFormula},
		{"E10", (*Suite).E10Extensions},
		{"E11", (*Suite).E11Netsim},
		{"E12", (*Suite).E12Ablations},
		{"E13", (*Suite).E13Availability},
		{"E14", (*Suite).E14StrategyOpt},
		{"E15", (*Suite).E15Queueing},
		{"E16", (*Suite).E16ReadWriteMix},
		{"E17", (*Suite).E17DynamicEpochs},
		{"E18", (*Suite).E18Scaling},
		{"E19", (*Suite).E19HeatDrift},
		{"E20", (*Suite).E20FlashCrowd},
		{"E21", (*Suite).E21DaemonDriftRamp},
	}
}

// RunAll executes every experiment and returns the tables in order.
func (s *Suite) RunAll() ([]*Table, error) {
	var out []*Table
	for _, e := range Experiments() {
		t, err := e.Run(s)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", e.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// --- shared instance generation ------------------------------------------

// graphFamily names a generated topology family.
type graphFamily struct {
	name string
	gen  func(n int, rng *rand.Rand) *graph.Graph
}

func families() []graphFamily {
	return []graphFamily{
		{"path", func(n int, _ *rand.Rand) *graph.Graph { return graph.Path(n) }},
		{"tree", func(n int, rng *rand.Rand) *graph.Graph { return graph.RandomTree(n, 1, 4, rng) }},
		{"erdos-renyi", func(n int, rng *rand.Rand) *graph.Graph {
			return graph.ErdosRenyiConnected(n, 0.4, 0.5, 3, rng)
		}},
		{"geometric", func(n int, rng *rand.Rand) *graph.Graph { return graph.RandomGeometric(n, 0.45, rng) }},
	}
}

// systemChoice names a quorum system used in the experiments.
type systemChoice struct {
	name string
	sys  *quorum.System
}

func smallSystems() []systemChoice {
	return []systemChoice{
		{"grid-2x2", quorum.Grid(2)},
		{"majority-3of4", quorum.Majority(4, 3)},
		{"star-4", quorum.Star(4)},
		{"wheel-4", quorum.Wheel(4)},
	}
}

// makeInstance builds a feasible instance on the given graph and system
// under the uniform strategy: capacities are seeded from a random placement
// plus small slack, so a capacity-respecting placement always exists.
func makeInstance(g *graph.Graph, sys *quorum.System, rng *rand.Rand) (*placement.Instance, error) {
	return makePerClientInstance(g, sys, nil, rng)
}

// makePerClientInstance is makeInstance for clients that each access
// through their own strategy (nil means all use the uniform one). The
// instance's strategy is then their average (placement.AverageStrategies),
// so the planted capacities fit the element loads that the §6 solver and
// the brute force place.
func makePerClientInstance(g *graph.Graph, sys *quorum.System, perClient []quorum.Strategy, rng *rand.Rand) (*placement.Instance, error) {
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		return nil, err
	}
	st := quorum.Uniform(sys.NumQuorums())
	n := g.N()
	tmp, err := placement.NewInstance(m, make([]float64, n), sys, st)
	if err != nil {
		return nil, err
	}
	if perClient != nil {
		if st, err = placement.AverageStrategies(tmp, perClient); err != nil {
			return nil, err
		}
		if tmp, err = placement.NewInstance(m, make([]float64, n), sys, st); err != nil {
			return nil, err
		}
	}
	caps := make([]float64, n)
	for u := 0; u < sys.Universe(); u++ {
		caps[rng.Intn(n)] += tmp.Load(u)
	}
	for v := range caps {
		caps[v] += rng.Float64() * 0.2
	}
	return placement.NewInstance(m, caps, sys, st)
}

// --- E1: Theorem 1.2 -------------------------------------------------------

// E1Theorem12 measures, per α, the worst observed delay ratio
// AvgΔ_f / OPT (paper bound 5α/(α-1)) and the worst observed load factor
// load_f(v)/cap(v) (paper bound α+1) over random small instances where the
// exact optimum is computable.
func (s *Suite) E1Theorem12() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 1))
	t := &Table{
		ID:       "E1",
		Title:    "QPP approximation (delay ratio and load factor vs α)",
		PaperRef: "Theorem 1.2: delay ≤ 5α/(α-1)·OPT, load ≤ (α+1)·cap",
		Columns:  []string{"alpha", "instances", "bound 5α/(α-1)", "worst delay ratio", "mean delay ratio", "bound α+1", "worst load factor"},
	}
	trials := s.trials(3, 12)
	for _, alpha := range []float64{1.5, 2, 3, 4} {
		worstRatio, sumRatio, worstLoad := 0.0, 0.0, 0.0
		count := 0
		arng := rand.New(rand.NewSource(s.Seed + 100)) // same instances per α
		for trial := 0; trial < trials; trial++ {
			sysC := smallSystems()[trial%len(smallSystems())]
			fam := families()[trial%len(families())]
			n := 5 + arng.Intn(3)
			ins, err := makeInstance(fam.gen(n, arng), sysC.sys, arng)
			if err != nil {
				return nil, err
			}
			_, opt, err := exact.SolveQPP(ins)
			if err != nil {
				return nil, err
			}
			res, err := placement.SolveQPP(ins, alpha)
			if err != nil {
				return nil, err
			}
			if opt > 0 {
				r := res.AvgMaxDelay / opt
				if r > worstRatio {
					worstRatio = r
				}
				sumRatio += r
				count++
			}
			if lf := ins.CapacityViolation(res.Placement); lf > worstLoad {
				worstLoad = lf
			}
		}
		mean := 0.0
		if count > 0 {
			mean = sumRatio / float64(count)
		}
		t.AddRow(F(alpha), fmt.Sprint(trials), F(5*alpha/(alpha-1)), F(worstRatio), F(mean), F(alpha+1), F(worstLoad))
		_ = rng
	}
	t.Notes = append(t.Notes,
		"OPT computed by branch-and-bound (internal/exact) on instances with ≤ 8 nodes",
		"observed ratios are far below the worst-case bounds, as expected for random instances")
	return t, nil
}

// --- E2: Theorem 1.3 -------------------------------------------------------

// E2Theorem13 measures the Grid and Majority specialized placements against
// the exact optimum: the paper bound is 5 with capacities respected exactly.
func (s *Suite) E2Theorem13() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 2))
	t := &Table{
		ID:       "E2",
		Title:    "Grid and Majority placements (capacity-respecting, ≤5×OPT)",
		PaperRef: "Theorem 1.3: Grid/Majority delay ≤ 5·OPT at load ≤ cap",
		Columns:  []string{"system", "graph", "instances", "worst ratio", "mean ratio", "worst load factor"},
	}
	trials := s.trials(2, 6)
	type cfg struct {
		name string
		run  func(ins *placement.Instance) (placement.Placement, float64, error)
		sys  *quorum.System
		load float64
	}
	cfgs := []cfg{
		{"grid-2x2", func(ins *placement.Instance) (placement.Placement, float64, error) {
			r, avg, err := placement.SolveGridQPP(ins)
			if err != nil {
				return placement.Placement{}, 0, err
			}
			return r.Placement, avg, nil
		}, quorum.Grid(2), 0.75},
		{"majority-3of4", func(ins *placement.Instance) (placement.Placement, float64, error) {
			r, avg, err := placement.SolveMajorityQPP(ins, 3)
			if err != nil {
				return placement.Placement{}, 0, err
			}
			return r.Placement, avg, nil
		}, quorum.Majority(4, 3), 0.75},
	}
	for _, c := range cfgs {
		for _, fam := range families() {
			worst, sum, worstLoad := 0.0, 0.0, 0.0
			count := 0
			for trial := 0; trial < trials; trial++ {
				n := 6 + rng.Intn(3)
				g := fam.gen(n, rng)
				m, err := graph.NewMetricFromGraph(g)
				if err != nil {
					return nil, err
				}
				caps := make([]float64, n)
				for v := range caps {
					caps[v] = c.load // exactly one element per node
				}
				ins, err := placement.NewInstance(m, caps, c.sys, quorum.Uniform(c.sys.NumQuorums()))
				if err != nil {
					return nil, err
				}
				pl, avg, err := c.run(ins)
				if err != nil {
					return nil, err
				}
				_, opt, err := exact.SolveQPP(ins)
				if err != nil {
					return nil, err
				}
				if opt > 0 {
					r := avg / opt
					if r > worst {
						worst = r
					}
					sum += r
					count++
				}
				if lf := ins.CapacityViolation(pl); lf > worstLoad {
					worstLoad = lf
				}
			}
			mean := 0.0
			if count > 0 {
				mean = sum / float64(count)
			}
			t.AddRow(c.name, fam.name, fmt.Sprint(trials), F(worst), F(mean), F(worstLoad))
		}
	}
	t.Notes = append(t.Notes, "load factor ≤ 1 confirms the Theorem 1.3 placements respect capacities exactly")
	return t, nil
}

// --- E3: Theorems 1.4 / 5.1 ------------------------------------------------

// E3TotalDelay verifies the total-delay solver never exceeds the
// capacity-respecting optimum while loading nodes at most 2×.
func (s *Suite) E3TotalDelay() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 3))
	t := &Table{
		ID:       "E3",
		Title:    "Total-delay placement (delay ≤ OPT at load ≤ 2·cap)",
		PaperRef: "Theorem 1.4 / Theorem 5.1",
		Columns:  []string{"system", "instances", "worst delay/OPT", "worst LP/OPT", "worst load factor", "bound"},
	}
	trials := s.trials(2, 8)
	for _, sysC := range smallSystems() {
		worstDelay, worstLP, worstLoad := 0.0, 0.0, 0.0
		for trial := 0; trial < trials; trial++ {
			fam := families()[trial%len(families())]
			n := 5 + rng.Intn(3)
			ins, err := makeInstance(fam.gen(n, rng), sysC.sys, rng)
			if err != nil {
				return nil, err
			}
			res, err := placement.SolveTotalDelay(ins)
			if err != nil {
				return nil, err
			}
			_, opt, err := exact.SolveTotalDelay(ins)
			if err != nil {
				return nil, err
			}
			if opt > 0 {
				if r := res.AvgDelay / opt; r > worstDelay {
					worstDelay = r
				}
				if r := res.LPBound / opt; r > worstLP {
					worstLP = r
				}
			}
			if lf := ins.CapacityViolation(res.Placement); lf > worstLoad {
				worstLoad = lf
			}
		}
		t.AddRow(sysC.name, fmt.Sprint(trials), F(worstDelay), F(worstLP), F(worstLoad), "delay ≤ 1·OPT, load ≤ 2")
	}
	t.Notes = append(t.Notes, "delay/OPT ≤ 1 because resource augmentation lets the GAP rounding beat every capacity-respecting placement")
	return t, nil
}

// --- E4: Theorem 3.7 -------------------------------------------------------

// E4SSQPP verifies the single-source pipeline bounds per α: the delay is at
// most α/(α-1)·Z* and the load at most (α+1)·cap; also reports the LP gap
// Z*/OPT on instances small enough for the exact solver.
func (s *Suite) E4SSQPP() (*Table, error) {
	t := &Table{
		ID:       "E4",
		Title:    "SSQPP LP rounding (delay vs α/(α-1)·Z*, load vs (α+1)·cap)",
		PaperRef: "Theorem 3.7 (and Theorem 3.12 at α=2)",
		Columns:  []string{"alpha", "instances", "bound α/(α-1)", "worst delay/Z*", "worst delay/OPT", "mean Z*/OPT", "worst load factor", "bound α+1"},
	}
	trials := s.trials(3, 10)
	for _, alpha := range []float64{1.25, 1.5, 2, 3, 4} {
		arng := rand.New(rand.NewSource(s.Seed + 400))
		worstVsLP, worstVsOpt, worstLoad := 0.0, 0.0, 0.0
		sumLPOpt := 0.0
		count := 0
		for trial := 0; trial < trials; trial++ {
			sysC := smallSystems()[trial%len(smallSystems())]
			fam := families()[trial%len(families())]
			n := 5 + arng.Intn(3)
			ins, err := makeInstance(fam.gen(n, arng), sysC.sys, arng)
			if err != nil {
				return nil, err
			}
			v0 := arng.Intn(n)
			res, err := placement.SolveSSQPP(ins, v0, alpha)
			if err != nil {
				return nil, err
			}
			_, opt, err := exact.SolveSSQPP(ins, v0)
			if err != nil {
				return nil, err
			}
			if res.LPBound > 1e-12 {
				if r := res.Delay / res.LPBound; r > worstVsLP {
					worstVsLP = r
				}
			}
			if opt > 1e-12 {
				if r := res.Delay / opt; r > worstVsOpt {
					worstVsOpt = r
				}
				sumLPOpt += res.LPBound / opt
				count++
			}
			if lf := ins.CapacityViolation(res.Placement); lf > worstLoad {
				worstLoad = lf
			}
		}
		meanGap := 0.0
		if count > 0 {
			meanGap = sumLPOpt / float64(count)
		}
		t.AddRow(F(alpha), fmt.Sprint(trials), F(alpha/(alpha-1)), F(worstVsLP), F(worstVsOpt), F(meanGap), F(worstLoad), F(alpha+1))
	}
	return t, nil
}

// --- E5: Lemma 3.1 ---------------------------------------------------------

// E5Relay measures the relay-via-v0 factor over random placements: the
// lemma guarantees it never exceeds 5.
func (s *Suite) E5Relay() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 5))
	t := &Table{
		ID:       "E5",
		Title:    "Relay-via-v0 detour factor over random placements",
		PaperRef: "Lemma 3.1: Avg[d(v,v0)+δ_f(v0,Q)] ≤ 5·Avg[Δ_f(v)]",
		Columns:  []string{"system", "placements", "max factor", "mean factor", "bound"},
	}
	trials := s.trials(5, 40)
	for _, sysC := range smallSystems() {
		maxF, sumF := 0.0, 0.0
		for trial := 0; trial < trials; trial++ {
			fam := families()[trial%len(families())]
			n := 6 + rng.Intn(4)
			ins, err := makeInstance(fam.gen(n, rng), sysC.sys, rng)
			if err != nil {
				return nil, err
			}
			p, err := placement.RandomFeasiblePlacement(ins, rng, 100)
			if err != nil {
				return nil, err
			}
			f, _ := placement.RelayFactor(ins, p)
			if f > maxF {
				maxF = f
			}
			sumF += f
		}
		t.AddRow(sysC.name, fmt.Sprint(trials), F(maxF), F(sumF/float64(trials)), "5")
	}
	return t, nil
}

// --- E6: Theorem 3.6 -------------------------------------------------------

// E6Reduction validates the NP-hardness reduction: the exact SSQPP optimum
// of the constructed instance equals the affine image of the exact
// scheduling optimum, and the optimal placement converts back to an optimal
// schedule.
func (s *Suite) E6Reduction() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 6))
	t := &Table{
		ID:       "E6",
		Title:    "1|prec|ΣwC → SSQPP reduction round-trip",
		PaperRef: "Theorem 3.6 (NP-hardness of Problem 3.2)",
		Columns:  []string{"time jobs", "weight jobs", "edges", "sched OPT", "Δ from formula", "SSQPP exact Δ", "recovered cost", "match"},
	}
	trials := s.trials(3, 8)
	for trial := 0; trial < trials; trial++ {
		nt := 2 + rng.Intn(4)
		nw := 1 + rng.Intn(3)
		ins := sched.RandomSpecialForm(nt, nw, 0.5, rng)
		r, err := sched.ToSSQPP(ins)
		if err != nil {
			return nil, err
		}
		_, schedOpt, err := sched.Exact(ins)
		if err != nil {
			return nil, err
		}
		pOpt, delayOpt, err := exact.SolveSSQPP(r.Ins, r.V0)
		if err != nil {
			return nil, err
		}
		formula := r.DelayFromCost(schedOpt)
		order, err := r.ScheduleFromPlacement(pOpt)
		if err != nil {
			return nil, err
		}
		recovered, err := ins.Cost(order)
		if err != nil {
			return nil, err
		}
		match := "yes"
		if math.Abs(delayOpt-formula) > 1e-9 || recovered != schedOpt {
			match = "NO"
		}
		t.AddRow(fmt.Sprint(nt), fmt.Sprint(nw), fmt.Sprint(len(ins.Prec)),
			fmt.Sprint(schedOpt), F(formula), F(delayOpt), fmt.Sprint(recovered), match)
	}
	t.Notes = append(t.Notes, "'match' requires Δ_SSQPP = (ε/m)·OPT_sched + const and the recovered schedule to be optimal")
	return t, nil
}
