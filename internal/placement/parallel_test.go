package placement_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// TestParallelMatchesSequential: the parallel solver must return exactly
// the sequential solver's result (same winning source, delay, and bounds).
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 6; trial++ {
		ins := randomInstance(t, rng)
		for _, workers := range []int{0, 1, 3} {
			seq, err := placement.SolveQPP(ins, 2)
			if err != nil {
				t.Fatal(err)
			}
			par, err := placement.SolveQPPParallel(ins, 2, workers)
			if err != nil {
				t.Fatal(err)
			}
			if par.BestV0 != seq.BestV0 {
				t.Fatalf("trial %d workers %d: winner %d vs %d", trial, workers, par.BestV0, seq.BestV0)
			}
			if math.Abs(par.AvgMaxDelay-seq.AvgMaxDelay) > 1e-12 {
				t.Fatalf("trial %d: delay %v vs %v", trial, par.AvgMaxDelay, seq.AvgMaxDelay)
			}
			if math.Abs(par.RelayBound-seq.RelayBound) > 1e-9 ||
				math.Abs(par.MaxLPBound-seq.MaxLPBound) > 1e-9 {
				t.Fatalf("trial %d: bounds differ: %v/%v vs %v/%v",
					trial, par.RelayBound, par.MaxLPBound, seq.RelayBound, seq.MaxLPBound)
			}
		}
	}
}

// TestParallelDifferential pins the parallel solver to the sequential one
// bit-for-bit across many randomized instances, every worker count, and
// both telemetry states (with telemetry on, every worker records through
// its own obs shard, so it gets its own column). The reduction
// over per-source results is associative and tie-broken identically to the
// sequential scan, and each source's warm LP history is fixed by its source
// run, so equality here is exact (==), not within a tolerance — and so are
// the LP work counters across worker counts.
//
// The random instances give nodes heterogeneous capacities, so the
// constraint-(13) forbidden set changes from source to source and most LP
// solves fall back to cold. The plan-shaped instances — random-geometric
// WANs with unit capacities, like the plan benchmark's LP route — keep the
// class count and the forbidden set fixed, so their runs chain warm solves,
// and the test requires that they do. Their LPs are the slow ones, so they
// run with telemetry on only: that column compares results bit for bit
// too, and adds the counter check.
func TestParallelDifferential(t *testing.T) {
	const trials = 50
	rng := rand.New(rand.NewSource(811))
	for trial := 0; trial < trials; trial++ {
		diffParallel(t, fmt.Sprintf("trial %d", trial), randomInstance(t, rng), false, true)
	}
	prng := rand.New(rand.NewSource(823))
	for _, c := range []struct {
		sys *quorum.System
		n   int
	}{{quorum.Grid(3), 14}, {quorum.Majority(5, 3), 22}} {
		m := mustMetric(t, graph.RandomGeometric(c.n, 0.4, prng))
		ins, err := placement.NewInstance(m, uniformCaps(c.n, 1), c.sys, quorum.Uniform(c.sys.NumQuorums()))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s on %d nodes", c.sys.Name(), c.n)
		if work := diffParallel(t, name, ins, true); work[1] == 0 {
			t.Fatalf("%s: no warm LP solve among %d", name, work[0])
		}
	}
}

// lpWork names the LP work counters of a QPP solve. They depend only on
// the source runs, so they must not move with the worker count.
var lpWork = []string{"lp.solves", "lp.hot_solves", "lp.pivots"}

// diffParallel checks SolveQPPParallel at workers 1…8 against SolveQPP bit
// for bit, in each of the given telemetry states. With telemetry on, each
// solve records into a fresh collector and its lpWork counters must equal
// those at workers 1. It returns the workers-1 counters (nil if telemetry
// was never on).
func diffParallel(t *testing.T, name string, ins *placement.Instance, telemetryStates ...bool) []int64 {
	t.Helper()
	seq, seqErr := placement.SolveQPP(ins, 2)
	var work []int64
	for _, telemetry := range telemetryStates {
		for workers := 1; workers <= 8; workers++ {
			var c *obs.Collector
			if telemetry {
				c = obs.Enable(nil)
			}
			par, parErr := placement.SolveQPPParallel(ins, 2, workers)
			if telemetry {
				obs.Disable()
				snap := c.Snapshot()
				got := make([]int64, len(lpWork))
				for i, k := range lpWork {
					got[i] = snap.Counter(k)
				}
				if work == nil {
					work = got
				} else if !slices.Equal(got, work) {
					t.Fatalf("%s workers %d: %v = %v, want %v as at workers 1", name, workers, lpWork, got, work)
				}
			}
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("%s workers %d telemetry %v: err %v vs %v",
					name, workers, telemetry, parErr, seqErr)
			}
			if seqErr != nil {
				if parErr.Error() != seqErr.Error() {
					t.Fatalf("%s workers %d: error %q vs %q", name, workers, parErr, seqErr)
				}
				continue
			}
			if par.BestV0 != seq.BestV0 || par.AvgMaxDelay != seq.AvgMaxDelay ||
				par.RelayBound != seq.RelayBound || par.MaxLPBound != seq.MaxLPBound {
				t.Fatalf("%s workers %d telemetry %v: result %+v vs %+v",
					name, workers, telemetry, par, seq)
			}
			for u := 0; u < ins.Sys.Universe(); u++ {
				if par.Placement.Node(u) != seq.Placement.Node(u) {
					t.Fatalf("%s workers %d: element %d placed at %d vs %d",
						name, workers, u, par.Placement.Node(u), seq.Placement.Node(u))
				}
			}
		}
	}
	return work
}

func TestParallelEmptyNetwork(t *testing.T) {
	m, err := graph.NewMetricFromMatrix([][]float64{})
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Singleton()
	ins, err := placement.NewInstance(m, nil, sys, quorum.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placement.SolveQPPParallel(ins, 2, 2); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestParallelAllSourcesFail(t *testing.T) {
	m := mustMetric(t, graph.Path(3))
	sys, st := tinySystem(t) // element 0 has load 1
	ins, err := placement.NewInstance(m, uniformCaps(3, 0.4), sys, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placement.SolveQPPParallel(ins, 2, 4); err == nil {
		t.Fatal("infeasible instance accepted")
	}
}

func TestParallelIsConcurrencySafe(t *testing.T) {
	// Run with -race to verify no shared-state races between workers.
	rng := rand.New(rand.NewSource(409))
	ins := randomInstance(t, rng)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := placement.SolveQPPParallel(ins, 2, 4)
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelSpanAttribution verifies the shard-based telemetry of the
// parallel solver on both routes: every worker's pipeline spans nest under
// its own placement.qpp_worker span (itself under placement.qpp_parallel),
// and the counters the workers buffer in their shards total exactly what a
// sequential telemetry run records. Each solve gets a fresh instance, so
// the parallel sweep builds its own LP skeletons.
func TestParallelSpanAttribution(t *testing.T) {
	const workers = 3
	for _, c := range []struct {
		name     string
		build    func() *placement.Instance
		runLen   int    // sources per claimable run
		pipeline string // the per-source span under a worker
		inner    string // a span that must nest under each pipeline
		counters []string
		hists    []string
	}{
		{
			name:     "LP route",
			build:    func() *placement.Instance { return randomInstance(t, rand.New(rand.NewSource(127))) },
			runLen:   4,
			pipeline: "placement.ssqpp",
			inner:    "ssqpp.lp/lp.solve",
			counters: []string{
				"lp.solves", "lp.pivots", "lp.phase1_iters", "lp.phase2_iters",
				"gap.fractional_vars", "gap.slots",
				"flow.augmentations", "placement.qpp_sources",
			},
			hists: []string{"lp.pivots_per_solve", "flow.augmentations_per_run"},
		},
		{
			name:     "DP route",
			build:    func() *placement.Instance { return dpTreeInstance(t, 70, 9) },
			runLen:   1,
			pipeline: "placement.ssqpp_exact",
			inner:    "treedp.ssqpp",
			counters: []string{"treedp.dp_ops", "treedp.dp_ranks", "placement.qpp_sources"},
		},
	} {
		seqC := obs.Enable(obs.NewCollector())
		_, err := placement.SolveQPP(c.build(), 2)
		obs.Disable()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		seq := seqC.Snapshot()

		ins := c.build()
		parC := obs.Enable(obs.NewCollector())
		_, err = placement.SolveQPPParallel(ins, 2, workers)
		obs.Disable()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		par := parC.Snapshot()

		paths := map[string]int{}
		for _, p := range par.SpanPaths() {
			paths[p]++
		}
		if paths["placement.qpp_parallel"] != 1 {
			t.Fatalf("%s: qpp_parallel roots = %d, paths = %v", c.name, paths["placement.qpp_parallel"], paths)
		}
		// The pool is clamped to the number of source runs.
		n := ins.M.N()
		if want := min(workers, (n+c.runLen-1)/c.runLen); paths["placement.qpp_parallel/placement.qpp_worker"] != want {
			t.Fatalf("%s: worker spans = %d, want %d", c.name, paths["placement.qpp_parallel/placement.qpp_worker"], want)
		}
		deep := "placement.qpp_parallel/placement.qpp_worker/" + c.pipeline
		if got := paths[deep]; got != n {
			t.Fatalf("%s: per-source pipelines under workers = %d, want %d (paths %v)", c.name, got, n, paths)
		}
		if paths[deep+"/"+c.inner] == 0 {
			t.Fatalf("%s: %s spans did not nest under worker pipelines: %v", c.name, c.inner, paths)
		}
		// No span may escape the worker subtree: everything except the root
		// parallel span must sit below a qpp_worker.
		for p, k := range paths {
			if p != "placement.qpp_parallel" && !strings.HasPrefix(p, "placement.qpp_parallel/placement.qpp_worker") {
				t.Fatalf("%s: span path %q (×%d) escaped worker attribution", c.name, p, k)
			}
		}

		// Worker-buffered counters must aggregate exactly like the
		// sequential run's (the solves are identical work, merely sharded).
		for _, name := range c.counters {
			if got, want := par.Counter(name), seq.Counter(name); got != want || want == 0 {
				t.Fatalf("%s: counter %s = %d parallel vs %d sequential", c.name, name, got, want)
			}
		}
		// Histograms recorded through shards must merge to the sequential ones.
		for _, name := range c.hists {
			ph, sh := par.Histograms[name], seq.Histograms[name]
			if ph.Count != sh.Count || ph.Sum != sh.Sum || ph.Min != sh.Min || ph.Max != sh.Max {
				t.Fatalf("%s: histogram %s differs: %+v vs %+v", c.name, name, ph, sh)
			}
		}
	}
}

// dpTreeInstance builds an instance on the exact-DP route: an n-node random
// tree (n ≥ 64) with Majority(5,3) and capacities between 0.4 and 1.4.
func dpTreeInstance(t *testing.T, n int, seed int64) *placement.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := mustMetric(t, graph.RandomTree(n, 0.2, 2.0, rng))
	sys := quorum.Majority(5, 3)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.4 + rng.Float64()
	}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	return ins
}
