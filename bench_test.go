package quorumplace

import (
	"fmt"
	"math/rand"
	"testing"

	"quorumplace/internal/exact"
	"quorumplace/internal/placement"
	"quorumplace/internal/sched"
)

// One benchmark per experiment in the DESIGN.md index (E1–E11), each
// exercising the code path that regenerates the corresponding table, plus
// micro-benchmarks for the hot substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks use fixed seeds so allocations and work are stable.

func benchInstance(b *testing.B, n int, sys *System) *Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyiConnected(n, 0.4, 0.5, 3, rng)
	m, err := NewMetricFromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	st := Uniform(sys.NumQuorums())
	caps := make([]float64, n)
	tmp, err := NewInstance(m, make([]float64, n), sys, st)
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < sys.Universe(); u++ {
		caps[rng.Intn(n)] += tmp.Load(u)
	}
	for v := range caps {
		caps[v] += 0.1
	}
	ins, err := NewInstance(m, caps, sys, st)
	if err != nil {
		b.Fatal(err)
	}
	return ins
}

// BenchmarkE1QPPApprox regenerates a row of E1 (Theorem 1.2): the full QPP
// solver at α = 2 on a 7-node instance with a 2×2 Grid system. Telemetry is
// enabled so the solver-internal work — simplex pivots, elimination updates
// and flow augmentations — is reported alongside ns/op.
func BenchmarkE1QPPApprox(b *testing.B) {
	ins := benchInstance(b, 7, Grid(2))
	c := EnableTelemetry()
	defer DisableTelemetry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveQPP(ins, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := c.Snapshot()
	b.ReportMetric(float64(snap.Counter("lp.pivots"))/float64(b.N), "pivots/op")
	b.ReportMetric(float64(snap.Counter("lp.elim_updates"))/float64(b.N), "elim/op")
	b.ReportMetric(float64(snap.Counter("flow.augmentations"))/float64(b.N), "augments/op")
}

// BenchmarkE2GridMajority regenerates E2 (Theorem 1.3): the specialized
// capacity-respecting Grid and Majority placements.
func BenchmarkE2GridMajority(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := RandomGeometric(16, 0.4, rng)
	m, err := NewMetricFromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	sysG := Grid(3)
	caps := make([]float64, 16)
	for i := range caps {
		caps[i] = 5.0 / 9.0
	}
	insG, err := NewInstance(m, caps, sysG, Uniform(sysG.NumQuorums()))
	if err != nil {
		b.Fatal(err)
	}
	sysM := Majority(5, 3)
	capsM := make([]float64, 16)
	for i := range capsM {
		capsM[i] = 0.6
	}
	insM, err := NewInstance(m, capsM, sysM, Uniform(sysM.NumQuorums()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveGridQPP(insG); err != nil {
			b.Fatal(err)
		}
		if _, _, err := SolveMajorityQPP(insM, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3TotalDelay regenerates E3 (Theorem 1.4/5.1).
func BenchmarkE3TotalDelay(b *testing.B) {
	ins := benchInstance(b, 10, Majority(5, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveTotalDelay(ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4SSQPP regenerates E4 (Theorem 3.7): one single-source LP
// solve + filter + round, reporting the simplex pivot count and elimination
// updates per solve.
func BenchmarkE4SSQPP(b *testing.B) {
	ins := benchInstance(b, 8, Grid(2))
	c := EnableTelemetry()
	defer DisableTelemetry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveSSQPP(ins, 0, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := c.Snapshot()
	b.ReportMetric(float64(snap.Counter("lp.pivots"))/float64(b.N), "pivots/op")
	b.ReportMetric(float64(snap.Counter("lp.elim_updates"))/float64(b.N), "elim/op")
}

// BenchmarkE5Relay regenerates E5 (Lemma 3.1): relay-factor measurement of
// a random placement.
func BenchmarkE5Relay(b *testing.B) {
	ins := benchInstance(b, 12, Majority(5, 3))
	rng := rand.New(rand.NewSource(5))
	p, err := RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RelayFactor(ins, p)
	}
}

// BenchmarkE6Reduction regenerates E6 (Theorem 3.6): build the reduction,
// solve both sides exactly, convert back.
func BenchmarkE6Reduction(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	s := sched.RandomSpecialForm(4, 3, 0.5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sched.ToSSQPP(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sched.Exact(s); err != nil {
			b.Fatal(err)
		}
		if _, _, err := exact.SolveSSQPP(r.Ins, r.V0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7IntegralityGap regenerates E7 (Claim A.1): the SSQPP LP lower
// bound on the Figure-1 broom graph with k = 4 (n = 16).
func BenchmarkE7IntegralityGap(b *testing.B) {
	g := Broom(4)
	n := g.N()
	m, err := NewMetricFromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	sys, err := NewSystem("single", n, [][]int{all})
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1
	}
	ins, err := NewInstance(m, caps, sys, Uniform(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSQPPLowerBound(ins, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8GridLayout regenerates E8 (Theorem B.1): the optimal L-shell
// layout of a 4×4 Grid over a 25-node geometric network.
func BenchmarkE8GridLayout(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := RandomGeometric(25, 0.35, rng)
	m, err := NewMetricFromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	sys := Grid(4)
	caps := make([]float64, 25)
	for i := range caps {
		caps[i] = 7.0 / 16.0
	}
	ins, err := NewInstance(m, caps, sys, Uniform(sys.NumQuorums()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.SolveGridSSQPP(ins, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9MajorityFormula regenerates E9 (Eq. 19) for n = 25, t = 13.
func BenchmarkE9MajorityFormula(b *testing.B) {
	taus := make([]float64, 25)
	for i := range taus {
		taus[i] = float64(25 - i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.MajorityFormula(taus, 13); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Extensions regenerates E10 (§6): the averaged-strategy solver.
func BenchmarkE10Extensions(b *testing.B) {
	ins := benchInstance(b, 6, StarSystem(4))
	rng := rand.New(rand.NewSource(10))
	per := make([]Strategy, ins.M.N())
	for v := range per {
		p := make([]float64, ins.Sys.NumQuorums())
		sum := 0.0
		for i := range p {
			p[i] = 0.1 + rng.Float64()
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		st, err := NewStrategy(p)
		if err != nil {
			b.Fatal(err)
		}
		per[v] = st
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveQPPAveragedStrategies(ins, per, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11NetsimValidation regenerates E11: 100 accesses per client on
// a 12-node WAN.
func BenchmarkE11NetsimValidation(b *testing.B) {
	ins := benchInstance(b, 12, Grid(2))
	rng := rand.New(rand.NewSource(11))
	p, err := RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	c := EnableTelemetry()
	defer DisableTelemetry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSim(SimConfig{
			Instance:          ins,
			Placement:         p,
			Mode:              SimParallel,
			AccessesPerClient: 100,
			Seed:              int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := c.Snapshot()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		eps := float64(snap.Counter("netsim.events")) / secs
		b.ReportMetric(eps, "events/sec")
		// Workers = 0 runs one worker: one core.
		b.ReportMetric(eps, "events/sec/core")
	}
	// Deterministic tail-latency metrics from one fixed-seed run: unlike
	// ns/op these are virtual-time quantities, identical on every machine,
	// so cmd/benchdiff's table can band them across snapshots from
	// different hardware.
	fixed, err := RunSim(SimConfig{
		Instance:          ins,
		Placement:         p,
		Mode:              SimParallel,
		AccessesPerClient: 100,
		Seed:              11,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(fixed.Percentile(0.99), "p99_delay")
	b.ReportMetric(fixed.Percentile(0.999), "p999_delay")
}

// --- substrate micro-benchmarks ---------------------------------------------

func BenchmarkMetricFromGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	g := RandomGeometric(100, 0.2, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMetricFromGraph(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalStrategyLP(b *testing.B) {
	sys := FPP(3) // 13 points, 13 lines
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalStrategy(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAvgMaxDelay(b *testing.B) {
	ins := benchInstance(b, 12, Majority(7, 4)) // 35 quorums
	rng := rand.New(rand.NewSource(21))
	p, err := RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins.AvgMaxDelay(p)
	}
}

func BenchmarkExactQPP(b *testing.B) {
	ins := benchInstance(b, 6, Grid(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exact.SolveQPP(ins); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks ------------------------------------------------------

// BenchmarkAblationAlpha quantifies how the α knob changes SSQPP solve
// time (the LP dominates; filtering and rounding are cheap).
func BenchmarkAblationAlpha(b *testing.B) {
	ins := benchInstance(b, 8, Grid(2))
	for _, alpha := range []float64{1.25, 2, 4} {
		b.Run(fmt.Sprintf("alpha=%.3g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SolveSSQPP(ins, 0, alpha); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLPScaling measures how the SSQPP LP scales with network
// size on the Figure-1 broom family (single quorum of n = k² elements).
func BenchmarkAblationLPScaling(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g := Broom(k)
			n := g.N()
			m, err := NewMetricFromGraph(g)
			if err != nil {
				b.Fatal(err)
			}
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			sys, err := NewSystem("single", n, [][]int{all})
			if err != nil {
				b.Fatal(err)
			}
			caps := make([]float64, n)
			for i := range caps {
				caps[i] = 1
			}
			ins, err := NewInstance(m, caps, sys, Uniform(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SSQPPLowerBound(ins, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGridLayoutVsLP compares the O(n log n) specialized grid
// layout against the general LP pipeline on the same instance — the paper's
// point that special structure admits far faster optimal algorithms.
func BenchmarkAblationGridLayoutVsLP(b *testing.B) {
	rng := rand.New(rand.NewSource(30))
	g := RandomGeometric(12, 0.4, rng)
	m, err := NewMetricFromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	sys := Grid(2)
	caps := make([]float64, 12)
	for i := range caps {
		caps[i] = 0.75
	}
	ins, err := NewInstance(m, caps, sys, Uniform(4))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shell-layout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := placement.SolveGridSSQPP(ins, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lp-pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveSSQPP(ins, 0, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLocalSearch measures the post-processing cost on top of
// the LP pipeline.
func BenchmarkAblationLocalSearch(b *testing.B) {
	ins := benchInstance(b, 10, Majority(5, 3))
	res, err := SolveSSQPP(ins, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ImproveLocalSearch(ins, res.Placement, LocalSearchConfig{
			Objective:     ObjectiveSourceMaxDelay,
			MaxLoadFactor: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailureSim measures the crash/retry simulator.
func BenchmarkFailureSim(b *testing.B) {
	ins := benchInstance(b, 12, Grid(2))
	rng := rand.New(rand.NewSource(31))
	p, err := RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := RunSimWithFailures(FailureSimConfig{
			Instance: ins, Placement: p, Mode: SimParallel,
			NodeFailureProb: 0.2, MaxRetries: 3,
			AccessesPerClient: 100, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		// The failure simulator processes exactly one event per access.
		events += int64(stats.Accesses)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		eps := float64(events) / secs
		b.ReportMetric(eps, "events/sec")
		b.ReportMetric(eps, "events/sec/core")
	}
}

// BenchmarkE14StrategyOpt regenerates E14: one strategy-optimization LP.
func BenchmarkE14StrategyOpt(b *testing.B) {
	ins := benchInstance(b, 10, Majority(5, 3))
	rng := rand.New(rand.NewSource(40))
	p, err := RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimizeStrategyForPlacement(ins, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15Queueing regenerates E15: a queueing simulation run.
// Telemetry is enabled so the queueing engine's event count — issues,
// arrivals and service completions, not directly derivable from
// QueueStats — backs the events/sec/core metric; the per-run telemetry
// cost (one span plus a run-local latency histogram) is covered by its own
// allocation band in cmd/benchdiff's table.
func BenchmarkE15Queueing(b *testing.B) {
	ins := benchInstance(b, 8, Grid(2))
	rng := rand.New(rand.NewSource(41))
	p, err := RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	c := EnableTelemetry()
	defer DisableTelemetry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSimWithQueueing(QueueSimConfig{
			Instance: ins, Placement: p,
			ArrivalRate: 0.05, ServiceMean: 0.5,
			AccessesPerClient: 200, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		eps := float64(c.Snapshot().Counter("netsim.events")) / secs
		b.ReportMetric(eps, "events/sec")
		b.ReportMetric(eps, "events/sec/core")
	}
}

// BenchmarkTelemetryOverhead quantifies the cost of the obs
// instrumentation around a full QPP solve: "disabled" is the default
// (telemetry off, every site reduced to one atomic load), "enabled"
// records the complete span tree and all counters.
func BenchmarkTelemetryOverhead(b *testing.B) {
	ins := benchInstance(b, 7, Grid(2))
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveQPP(ins, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		EnableTelemetry()
		defer DisableTelemetry()
		for i := 0; i < b.N; i++ {
			if _, err := SolveQPP(ins, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelQPP measures the parallel scaling of the QPP reduction
// on the E7 broom family at k = 5 (a single quorum over all n = k²+1 nodes,
// so every per-source SSQPP solve carries a real LP). All sub-benchmarks
// solve the identical instance with a fixed worker count; the ratio of
// workers=1 to workers=4 ns/op is the parallel speedup, a ratio in
// cmd/benchdiff's table. Worker counts beyond GOMAXPROCS only
// interleave, so compare sub-benchmarks under `-cpu N` pinning (or on a
// machine) with at least as many cores as workers; scripts/bench.sh records
// the run's GOMAXPROCS in the snapshot for exactly this reason. Each
// sub-benchmark also reports the simplex pivots and elimination updates of
// one solve, run with telemetry on after the timed loop so ns/op stays
// free of telemetry; both are exact counts, the same on every machine.
func BenchmarkParallelQPP(b *testing.B) {
	g := Broom(5)
	n := g.N()
	m, err := NewMetricFromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	sys, err := NewSystem("single", n, [][]int{all})
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1
	}
	ins, err := NewInstance(m, caps, sys, Uniform(1))
	if err != nil {
		b.Fatal(err)
	}
	// Warm the instance's LP model-skeleton cache so every timed iteration
	// measures steady state; otherwise allocs/op depends on how many
	// iterations the benchtime amortizes the one-time build over.
	if _, err := SolveQPPParallel(ins, 2, 1); err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SolveQPPParallel(ins, 2, w); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			c := EnableTelemetry()
			_, err := SolveQPPParallel(ins, 2, w)
			DisableTelemetry()
			if err != nil {
				b.Fatal(err)
			}
			snap := c.Snapshot()
			b.ReportMetric(float64(snap.Counter("lp.pivots")), "pivots/op")
			b.ReportMetric(float64(snap.Counter("lp.elim_updates")), "elim/op")
		})
	}
}

// BenchmarkWANReplicaQPP runs the sequential Theorem 1.2 solver,
// SolveQPP(ins, 2), on the instance examples/wanreplica builds: Grid(3)
// over a 40-host random-geometric WAN (radius 0.3, seed 7) whose hosts
// hold capacity 0, one element's load or two. Every source's LP is the
// tallest this repository solves (about 2,500 rows). Telemetry is enabled,
// as in E1, to report simplex pivots and elimination updates per op. One
// iteration takes seconds, so scripts/bench.sh's pattern leaves it out;
// run it with
//
//	go test -run '^$' -bench BenchmarkWANReplicaQPP -benchtime 1x .
func BenchmarkWANReplicaQPP(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const hosts = 40
	m, err := BuildMetric(RandomGeometric(hosts, 0.3, rng))
	if err != nil {
		b.Fatal(err)
	}
	sys := Grid(3)
	load := 5.0 / 9.0
	caps := make([]float64, hosts)
	for i := range caps {
		caps[i] = float64(rng.Intn(3)) * load
	}
	ins, err := NewInstance(m, caps, sys, Uniform(sys.NumQuorums()))
	if err != nil {
		b.Fatal(err)
	}
	c := EnableTelemetry()
	defer DisableTelemetry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveQPP(ins, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := c.Snapshot()
	b.ReportMetric(float64(snap.Counter("lp.pivots"))/float64(b.N), "pivots/op")
	b.ReportMetric(float64(snap.Counter("lp.elim_updates"))/float64(b.N), "elim/op")
}

// BenchmarkParallelNetsim measures the sharded deterministic discrete-event
// engine (Config.Workers ≥ 1) on all three simulators at workers=1/2/4/8.
// The workload — 96 clients on an Erdős–Rényi metric, a 3×3 grid quorum
// system — is sized so one op is tens of thousands of events, enough for
// the shards to amortize spawn and merge. events/sec/core divides by the
// worker count, making the scaling efficiency visible directly in the
// BENCH snapshots. sim=failures also reports crash_draws/op, the crash
// states one run peeks (one per hosting node per access), counted in one
// untimed seed-0 run after the timed loop, so it is exact and the same at
// every worker count. cmd/benchdiff's table gates the count and the
// workers=1 / workers=4 ratio of sim=run.
func BenchmarkParallelNetsim(b *testing.B) {
	ins := benchInstance(b, 96, Grid(3))
	rng := rand.New(rand.NewSource(51))
	p, err := RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	const apc = 400
	sims := []struct {
		name string
		run  func(workers int, seed int64) error
	}{
		{"run", func(w int, seed int64) error {
			_, err := RunSim(SimConfig{
				Instance: ins, Placement: p, Mode: SimParallel,
				AccessesPerClient: apc, InterAccessTime: 0.1,
				Seed: seed, Workers: w,
			})
			return err
		}},
		{"failures", func(w int, seed int64) error {
			_, err := RunSimWithFailures(FailureSimConfig{
				Instance: ins, Placement: p, Mode: SimParallel,
				NodeFailureProb: 0.1, MaxRetries: 2, RetryPenalty: 0.5,
				AccessesPerClient: apc, Seed: seed, Workers: w,
			})
			return err
		}},
		{"queueing", func(w int, seed int64) error {
			_, err := RunSimWithQueueing(QueueSimConfig{
				Instance: ins, Placement: p,
				ArrivalRate: 0.05, ServiceMean: 0.5,
				AccessesPerClient: apc, Seed: seed, Workers: w,
			})
			return err
		}},
	}
	for _, sim := range sims {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("sim=%s/workers=%d", sim.name, w), func(b *testing.B) {
				c := EnableTelemetry()
				defer DisableTelemetry()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sim.run(w, int64(i)); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					eps := float64(c.Snapshot().Counter("netsim.events")) / secs
					b.ReportMetric(eps, "events/sec")
					b.ReportMetric(eps/float64(w), "events/sec/core")
				}
				if sim.name == "failures" {
					c := EnableTelemetry()
					if err := sim.run(w, 0); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(c.Snapshot().Counter("netsim.crash_draws")), "crash_draws/op")
				}
			})
		}
	}
}

// BenchmarkMigration measures the GAP-based migration planner.
func BenchmarkMigration(b *testing.B) {
	ins := benchInstance(b, 10, Majority(5, 3))
	rng := rand.New(rand.NewSource(42))
	old, err := RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanMigration(ins, old, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16ReadWriteMix regenerates E16: combine a Gifford bicoterie and
// place it with the total-delay solver.
func BenchmarkE16ReadWriteMix(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	g := RandomGeometric(14, 0.4, rng)
	m, err := NewMetricFromGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	rw := GiffordVoting(5, 2, 4)
	caps := make([]float64, 14)
	for i := range caps {
		caps[i] = 0.9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, st, err := rw.Combine(0.8)
		if err != nil {
			b.Fatal(err)
		}
		ins, err := NewInstance(m, caps, sys, st)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := SolveTotalDelay(ins); err != nil {
			b.Fatal(err)
		}
	}
}
