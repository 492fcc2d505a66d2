package eval

import (
	"fmt"
	"math/rand"

	"quorumplace/internal/graph"
	"quorumplace/internal/migrate"
	"quorumplace/internal/netsim"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// --- E12: ablations -----------------------------------------------------------

// E12Ablations quantifies the design choices DESIGN.md calls out:
//
//   - the Shmoys–Tardos rounding step vs. naive argmax rounding of the
//     filtered LP solution (same delay family, no load guarantee);
//   - the value of local-search post-processing on top of the LP pipeline;
//   - the LP pipeline vs. the greedy and random baselines.
//
// All placements are single-source (v0 = 0, α = 2) so the numbers are
// directly comparable to the Theorem 3.7 bounds.
func (s *Suite) E12Ablations() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 12))
	t := &Table{
		ID:       "E12",
		Title:    "Ablations: rounding, local search, baselines (single-source, α=2)",
		PaperRef: "Theorem 3.7 pipeline design choices (extension; not in paper)",
		Columns: []string{
			"system", "graph",
			"LP+ST delay", "LP+ST load×",
			"+local search", "argmax delay", "argmax load×",
			"greedy delay", "random delay",
		},
	}
	alpha := 2.0
	trials := s.trials(2, 4)
	for _, sysC := range smallSystems() {
		for trial := 0; trial < trials; trial++ {
			fam := families()[trial%len(families())]
			// First-fit greedy is an incomplete packing heuristic; retry
			// with fresh instances until it succeeds so every row has all
			// comparators.
			var ins *placement.Instance
			var gp placement.Placement
			var err error
			for attempt := 0; ; attempt++ {
				n := 6 + rng.Intn(3)
				ins, err = makeInstance(fam.gen(n, rng), sysC.sys, rng)
				if err != nil {
					return nil, err
				}
				// Loosen capacities so the feasible region has real slack;
				// with exactly-fitting bins every feasible placement uses
				// the same host multiset and the baselines degenerate to
				// the same delay.
				caps := make([]float64, ins.M.N())
				for v := range caps {
					caps[v] = ins.Cap[v] + 1
				}
				ins, err = placement.NewInstance(ins.M, caps, ins.Sys, ins.Strat)
				if err != nil {
					return nil, err
				}
				gp, err = placement.GreedyClosestPlacement(ins, 0)
				if err == nil {
					break
				}
				if attempt >= 20 {
					return nil, fmt.Errorf("eval: greedy packing kept failing: %w", err)
				}
			}
			v0 := 0
			res, err := placement.SolveSSQPP(ins, v0, alpha)
			if err != nil {
				return nil, err
			}
			_, lsDelay, err := placement.ImproveLocalSearch(ins, res.Placement, placement.LocalSearchConfig{
				Objective:     placement.ObjectiveSourceMaxDelay,
				V0:            v0,
				MaxLoadFactor: alpha + 1,
			})
			if err != nil {
				return nil, err
			}
			am, err := placement.SolveSSQPPArgmax(ins, v0, alpha)
			if err != nil {
				return nil, err
			}
			rp, err := placement.RandomFeasiblePlacement(ins, rng, 100)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				sysC.name, fam.name,
				F(res.Delay), F(ins.CapacityViolation(res.Placement)),
				F(lsDelay), F(am.Delay), F(ins.CapacityViolation(am.Placement)),
				F(ins.MaxDelayFrom(v0, gp)), F(ins.MaxDelayFrom(v0, rp)),
			)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("LP+ST guarantees load ≤ α+1 = %g; argmax rounding has the same α/(α-1)·Z* delay bound but NO load bound (watch its load× column)", alpha+1),
		"local search never worsens delay and preserves the (α+1)·cap budget")
	return t, nil
}

// --- E13: placement availability -----------------------------------------------

// E13Availability measures the fault-tolerance cost of placements: the
// probability that no quorum survives when nodes crash, for the LP
// placement, the capacity-respecting greedy, and a deliberately colocated
// placement — connecting the §1/§2 load-dispersion motivation to numbers.
func (s *Suite) E13Availability() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 13))
	t := &Table{
		ID:       "E13",
		Title:    "Placed availability under node crashes (p = 0.2)",
		PaperRef: "§1/§2 load-dispersion & fault-tolerance motivation (extension; not in paper)",
		Columns:  []string{"system", "placement", "used nodes", "node resilience", "P(no live quorum)", "avg Δ"},
	}
	p := 0.2
	for _, sysC := range smallSystems() {
		fam := families()[1] // trees keep the exact computation small
		n := 8
		ins, err := makeInstance(fam.gen(n, rng), sysC.sys, rng)
		if err != nil {
			return nil, err
		}
		res, err := placement.SolveQPP(ins, 2)
		if err != nil {
			return nil, err
		}
		gp, err := placement.BestGreedyPlacement(ins)
		if err != nil {
			return nil, err
		}
		for _, c := range []struct {
			name string
			pl   placement.Placement
		}{
			{"LP rounding (α=2)", res.Placement},
			{"greedy (cap-respecting)", gp},
		} {
			fp, err := ins.NodeFailureProbability(c.pl, p)
			if err != nil {
				return nil, err
			}
			r, err := ins.PlacementResilience(c.pl)
			if err != nil {
				return nil, err
			}
			used := map[int]bool{}
			for u := 0; u < c.pl.Len(); u++ {
				used[c.pl.Node(u)] = true
			}
			t.AddRow(sysC.name, c.name, fmt.Sprint(len(used)), fmt.Sprint(r), F(fp), F(ins.AvgMaxDelay(c.pl)))
		}
	}
	t.Notes = append(t.Notes, "node resilience = crashes always survived; colocation lowers it even when delay improves")
	return t, nil
}

// --- E14: strategy re-optimization ----------------------------------------------

// E14StrategyOpt measures the delay gained by re-optimizing the access
// strategy for a fixed placement (the knob complementary to the paper's:
// it fixes p and optimizes f, we then fix f and re-optimize p). The
// optimized strategy is constrained to keep every node within its capacity,
// so the gain is "free" in the paper's load model.
func (s *Suite) E14StrategyOpt() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 14))
	t := &Table{
		ID:       "E14",
		Title:    "Strategy re-optimization for a fixed placement",
		PaperRef: "§6-style extension (not in paper); LP companion of Problem 1.1",
		Columns:  []string{"system", "graph", "uniform-strategy Δ", "shared optimized Δ", "per-client Δ", "gain %", "load feasible"},
	}
	trials := s.trials(1, 2)
	for _, sysC := range smallSystems() {
		for trial := 0; trial < trials; trial++ {
			fam := families()[(trial+1)%len(families())]
			n := 6 + rng.Intn(3)
			ins, err := makeInstance(fam.gen(n, rng), sysC.sys, rng)
			if err != nil {
				return nil, err
			}
			p, err := placement.RandomFeasiblePlacement(ins, rng, 100)
			if err != nil {
				return nil, err
			}
			before := ins.AvgMaxDelay(p)
			st, obj, err := placement.OptimizeStrategyForPlacement(ins, p)
			if err != nil {
				return nil, err
			}
			_, perObj, err := placement.OptimizePerClientStrategies(ins, p)
			if err != nil {
				return nil, err
			}
			ins2, err := placement.NewInstance(ins.M, ins.Cap, ins.Sys, st)
			if err != nil {
				return nil, err
			}
			feasible := "yes"
			if !ins2.Feasible(p) {
				feasible = "NO"
			}
			gain := 0.0
			if before > 0 {
				gain = 100 * (before - perObj) / before
			}
			t.AddRow(sysC.name, fam.name, F(before), F(obj), F(perObj), F(gain), feasible)
		}
	}
	t.Notes = append(t.Notes, "per-client strategies (§6) dominate the shared optimum; both respect node capacities via the averaged-strategy load model")
	return t, nil
}

// --- E15: queueing (why capacities matter) ---------------------------------------

// E15Queueing couples load to delay through node service queues: the same
// quorum system is placed (a) respecting capacities (the Theorem 1.3 grid
// layout) and (b) delay-greedily onto the single best node cluster, then
// both are simulated under increasing request rates. The capacity-
// respecting placement's latency stays near its propagation floor while
// the violating placement's latency grows with load — the quantitative
// version of the paper's low-load motivation (§1.1).
func (s *Suite) E15Queueing() (*Table, error) {
	t := &Table{
		ID:       "E15",
		Title:    "Queueing: capacity-respecting vs capacity-violating placements",
		PaperRef: "§1.1 load/delay tension (extension; not in paper)",
		Columns:  []string{"arrival rate", "placement", "load×cap", "sim latency", "mean queue wait", "max utilization"},
	}
	g := graph.Complete(8)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		return nil, err
	}
	sys := quorum.Grid(2)
	caps := make([]float64, 8)
	for i := range caps {
		caps[i] = 0.8
	}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(4))
	if err != nil {
		return nil, err
	}
	spread, err := placement.GreedyClosestPlacement(ins, 0)
	if err != nil {
		return nil, err
	}
	colocated := placement.NewPlacement([]int{0, 0, 0, 0})
	accesses := s.trials(600, 4000)
	for _, rate := range []float64{0.04, 0.08, 0.12} {
		for _, c := range []struct {
			name string
			pl   placement.Placement
		}{
			{"capacity-respecting", spread},
			{"colocated (violates cap)", colocated},
		} {
			stats, err := netsim.RunQueueing(netsim.QueueConfig{
				Instance: ins, Placement: c.pl,
				ArrivalRate: rate, ServiceMean: 1,
				AccessesPerClient: accesses, Seed: s.Seed + 1500,
				Recorder: s.Recorder, Heat: s.Heat,
				Workers: s.SimWorkers,
			})
			if err != nil {
				return nil, err
			}
			maxU := 0.0
			for _, u := range stats.Utilization {
				if u > maxU {
					maxU = u
				}
			}
			t.AddRow(F(rate), c.name, F(ins.CapacityViolation(c.pl)), F(stats.AvgLatency), F(stats.AvgWait), F(maxU))
		}
	}
	t.Notes = append(t.Notes, "complete graph: propagation identical for both placements, so all latency differences are queueing")
	return t, nil
}

// --- E16: read/write mixes ---------------------------------------------------------

// E16ReadWriteMix places Gifford weighted-voting read/write systems for a
// sweep of read fractions and quantifies the value of mix-aware placement:
// each row compares the placement optimized for that mix against the
// placement optimized for the opposite extreme, both evaluated under the
// row's mix.
func (s *Suite) E16ReadWriteMix() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 16))
	t := &Table{
		ID:       "E16",
		Title:    "Mix-aware placement of read/write (Gifford voting) systems",
		PaperRef: "reference [8] workloads through the Theorem 1.4 solver (extension)",
		Columns:  []string{"read fraction", "mix-aware AvgΓ", "write-optimized AvgΓ", "penalty %", "load factor"},
	}
	rw := quorum.GiffordVoting(5, 2, 4)
	n := 14
	g := graph.RandomGeometric(n, 0.4, rng)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		return nil, err
	}
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.9
	}
	// Reference placement: optimized for a write-only mix.
	sysW, stW, err := rw.Combine(0)
	if err != nil {
		return nil, err
	}
	insW, err := placement.NewInstance(m, caps, sysW, stW)
	if err != nil {
		return nil, err
	}
	writeOpt, err := placement.SolveTotalDelay(insW)
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0.5, 0.8, 0.95} {
		sys, st, err := rw.Combine(frac)
		if err != nil {
			return nil, err
		}
		ins, err := placement.NewInstance(m, caps, sys, st)
		if err != nil {
			return nil, err
		}
		res, err := placement.SolveTotalDelay(ins)
		if err != nil {
			return nil, err
		}
		crossDelay := ins.AvgTotalDelay(writeOpt.Placement)
		penalty := 0.0
		if res.AvgDelay > 0 {
			penalty = 100 * (crossDelay - res.AvgDelay) / res.AvgDelay
		}
		t.AddRow(F(frac), F(res.AvgDelay), F(crossDelay), F(penalty), F(ins.CapacityViolation(res.Placement)))
	}
	t.Notes = append(t.Notes,
		"reads are C(5,2) small quorums, writes C(5,4) large ones; a write-optimized placement's penalty never shrinks as the read share grows",
		"both placements come from the Theorem 1.4 GAP solver, so loads stay within 2·cap")
	return t, nil
}

// --- E17: dynamic workloads ---------------------------------------------------------

// E17DynamicEpochs runs a sequence of workload epochs (client rate shifts)
// under three migration policies: never migrate, re-place from scratch each
// epoch (λ=0), and λ-balanced migration. It reports cumulative delay and
// cumulative movement, showing the balanced policy captures most of the
// delay benefit at a fraction of the movement.
func (s *Suite) E17DynamicEpochs() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 17))
	t := &Table{
		ID:       "E17",
		Title:    "Migration policies across workload epochs",
		PaperRef: "dynamic extension of Theorem 1.4 via internal/migrate (not in paper)",
		Columns:  []string{"policy", "epochs", "cumulative AvgΓ", "cumulative movement", "max load factor"},
	}
	const hosts = 14
	g := graph.RandomGeometric(hosts, 0.4, rng)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		return nil, err
	}
	sys := quorum.Majority(5, 3)
	caps := make([]float64, hosts)
	for i := range caps {
		caps[i] = 0.7
	}
	baseIns, err := placement.NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		return nil, err
	}
	epochs := s.trials(3, 6)
	// Pre-generate the rate shift per epoch: a random hotspot region.
	epochRates := make([][]float64, epochs)
	for e := range epochRates {
		rates := make([]float64, hosts)
		hot := rng.Intn(hosts)
		for v := range rates {
			rates[v] = 1
			if m.D(v, hot) < 0.3 {
				rates[v] = 20
			}
		}
		epochRates[e] = rates
	}
	initial, err := placement.SolveTotalDelay(baseIns)
	if err != nil {
		return nil, err
	}
	type policy struct {
		name   string
		lambda float64
		static bool
	}
	for _, pol := range []policy{
		{"never migrate", 0, true},
		{"re-place each epoch (λ=0)", 0, false},
		{"balanced (λ=0.3)", 0.3, false},
		{"conservative (λ=1)", 1, false},
	} {
		cur := initial.Placement
		totalDelay, totalMoved, maxLoad := 0.0, 0.0, 0.0
		for e := 0; e < epochs; e++ {
			ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
			if err != nil {
				return nil, err
			}
			if err := ins.SetRates(epochRates[e]); err != nil {
				return nil, err
			}
			if !pol.static {
				plan, err := migrate.Solve(ins, cur, pol.lambda)
				if err != nil {
					return nil, err
				}
				totalMoved += plan.Moved
				cur = plan.Placement
			}
			totalDelay += ins.AvgTotalDelay(cur)
			if lf := ins.CapacityViolation(cur); lf > maxLoad {
				maxLoad = lf
			}
		}
		t.AddRow(pol.name, fmt.Sprint(epochs), F(totalDelay), F(totalMoved), F(maxLoad))
	}
	t.Notes = append(t.Notes, "every migrating policy keeps loads within the Theorem 5.1 bound of 2×cap")
	return t, nil
}
