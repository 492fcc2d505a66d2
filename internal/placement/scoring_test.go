package placement

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/quorum"
	"quorumplace/internal/treedp"
)

// tiedMetric draws a connected graph with integer edge lengths 1–3, so many
// client–node distances tie.
func tiedMetric(t *testing.T, rng *rand.Rand, n int) *graph.Metric {
	t.Helper()
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(rng.Intn(v), v, float64(1+rng.Intn(3)))
	}
	for i := 0; i < n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(u, v, float64(1+rng.Intn(3)))
		}
	}
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// randomScoringSystem draws an intersecting system over nU elements (every
// quorum holds a majority; an element may lie in no quorum) and a strategy
// that gives about a third of the quorums probability zero.
func randomScoringSystem(t *testing.T, rng *rand.Rand, nU int) (*quorum.System, quorum.Strategy) {
	t.Helper()
	qs := make([][]int, 1+rng.Intn(12))
	for i := range qs {
		qs[i] = rng.Perm(nU)[:nU/2+1+rng.Intn(nU-nU/2)]
	}
	sys, err := quorum.NewSystem("random", nU, qs)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(qs))
	sum := 0.0
	for i := range w {
		if i == 0 || rng.Intn(3) > 0 {
			w[i] = rng.Float64() + 0.01
		}
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	st, err := quorum.NewStrategy(w)
	if err != nil {
		t.Fatal(err)
	}
	return sys, st
}

// randomRates returns nil (uniform), positive rates, or rates with zeros,
// by kind modulo 3.
func randomRates(rng *rand.Rand, n, kind int) []float64 {
	if kind%3 == 0 {
		return nil
	}
	r := make([]float64, n)
	for v := range r {
		if kind%3 == 1 || rng.Intn(2) == 0 {
			r[v] = rng.Float64() * 5
		}
	}
	r[rng.Intn(n)] += 1
	return r
}

// The rank walk must bracket the exact objective within its slack on both
// sides, whatever the universe (up to treedp.MaxUniverse), rates, zero
// probabilities, distance ties and element stacking.
func TestDelayBoundBracketsAvgMaxDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(291))
	for trial := 0; trial < 300; trial++ {
		nU, n := 1+rng.Intn(treedp.MaxUniverse), 1+rng.Intn(30)
		sys, st := randomScoringSystem(t, rng, nU)
		ins, err := NewInstance(tiedMetric(t, rng, n), uniformCapacities(n, 1), sys, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := ins.SetRates(randomRates(rng, n, trial)); err != nil {
			t.Fatal(err)
		}
		hosts := 1 + rng.Intn(n) // few hosts stack elements
		f := make([]int, nU)
		for u := range f {
			f[u] = rng.Intn(hosts)
		}
		pl := NewPlacement(f)
		walk, slack := ins.delayBound(pl, treedp.SubsetMass(sys, st))
		exact := ins.AvgMaxDelay(pl)
		if !(walk-slack <= exact && exact <= walk+slack) {
			t.Fatalf("trial %d (U=%d, n=%d): rank walk %v ± %v does not bracket AvgMaxDelay %v", trial, nU, n, walk, slack, exact)
		}
	}
}

func uniformCapacities(n int, c float64) []float64 {
	caps := make([]float64, n)
	for v := range caps {
		caps[v] = c
	}
	return caps
}

// exhaustiveQPP is the QPP sweep with every source scored exactly: the
// same source runs and warm starts as solveQPP, folded in ascending v0.
func exhaustiveQPP(ins *Instance, alpha float64) (*QPPResult, error) {
	sv := newSSQPPSolver(ins, obs.Rec{})
	runLen, runs := ins.sourceRuns()
	var best *SSQPPResult
	bestAvg, bestV0, relay, maxLP := 0.0, 0, math.Inf(1), 0.0
	var firstErr error
	for r := 0; r < runs; r++ {
		sv.ws.ResetWarm()
		for v0 := r * runLen; v0 < min((r+1)*runLen, ins.M.N()); v0++ {
			res, err := sv.solve(v0, alpha)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if b := ins.AvgDistToNode(v0) + alpha/(alpha-1)*res.LPBound; b < relay {
				relay = b
			}
			if res.LPBound > maxLP {
				maxLP = res.LPBound
			}
			if avg := ins.AvgMaxDelay(res.Placement); best == nil || avg < bestAvg {
				best, bestAvg, bestV0 = res, avg, v0
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("placement: SSQPP failed for every source: %w", firstErr)
	}
	return &QPPResult{Placement: best.Placement, AvgMaxDelay: bestAvg, BestV0: bestV0,
		Alpha: alpha, RelayBound: relay, MaxLPBound: maxLP}, nil
}

// sameQPP fails unless got and want agree bit for bit: placement, average
// max-delay, winning source, both bounds and the error text.
func sameQPP(t *testing.T, name string, got *QPPResult, gotErr error, want *QPPResult, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, exhaustive sweep %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	bits := math.Float64bits
	if !slices.Equal(got.Placement.Map(), want.Placement.Map()) || bits(got.AvgMaxDelay) != bits(want.AvgMaxDelay) ||
		got.BestV0 != want.BestV0 || bits(got.RelayBound) != bits(want.RelayBound) || bits(got.MaxLPBound) != bits(want.MaxLPBound) {
		t.Fatalf("%s: got %+v, exhaustive sweep %+v", name, got, want)
	}
}

// SolveQPP and SolveQPPParallel at workers 1, 2 and 5 must return exactly
// what scoring every source returns, on the LP route and the DP route. The
// DP instances must also show the bound gate skipping candidates.
func TestBoundGatedSweepMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(292))
	var sources, evals int64
	for trial := 0; trial < 24; trial++ {
		dp := trial%2 == 1
		nU, n := 1+rng.Intn(4), 3+rng.Intn(7)
		if dp {
			nU, n = 1+rng.Intn(8), exactDPMinNodes+rng.Intn(24)
		}
		sys, st := randomScoringSystem(t, rng, nU)
		loads, err := sys.Loads(st)
		if err != nil {
			t.Fatal(err)
		}
		maxLoad, total := slices.Max(loads), 0.0
		for _, l := range loads {
			total += l
		}
		caps := make([]float64, n)
		for v := range caps {
			caps[v] = []float64{0, maxLoad, 2 * maxLoad, total}[rng.Intn(4)]
		}
		ins, err := NewInstance(tiedMetric(t, rng, n), caps, sys, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := ins.SetRates(randomRates(rng, n, trial/2)); err != nil {
			t.Fatal(err)
		}
		if ins.exactDPAuto() != dp {
			t.Fatalf("trial %d: DP route %v, want %v", trial, !dp, dp)
		}
		name := fmt.Sprintf("trial %d (U=%d, n=%d)", trial, nU, n)
		want, wantErr := exhaustiveQPP(ins, 2)
		c := obs.Enable(nil)
		got, err := SolveQPP(ins, 2)
		obs.Disable()
		sameQPP(t, name, got, err, want, wantErr)
		if dp && err == nil {
			snap := c.Snapshot()
			sources += snap.Counter("placement.qpp_sources")
			evals += snap.Counter("placement.delay_evals")
		}
		for _, workers := range []int{1, 2, 5} {
			got, err := SolveQPPParallel(ins, 2, workers)
			sameQPP(t, fmt.Sprintf("%s workers %d", name, workers), got, err, want, wantErr)
		}
	}
	if evals == 0 || evals >= sources {
		t.Fatalf("DP sweeps scored %d of %d sources exactly; the gate never skipped", evals, sources)
	}
}

// A candidate that beats the incumbent by a relative 1e-12, far inside the
// bound's slack, must still be scored exactly, and win.
func TestBoundGateScoresNearTies(t *testing.T) {
	m, err := graph.NewMetricFromMatrix([][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := quorum.NewSystem("one", 1, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := NewInstance(m, []float64{1, 1}, sys, quorum.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.SetRates([]float64{1, 1 + 1e-12}); err != nil {
		t.Fatal(err)
	}
	var p qppPartial
	p.init(treedp.SubsetMass(sys, ins.Strat))
	for v0 := 0; v0 < 2; v0++ {
		p.add(ins, 2, v0, &SSQPPResult{Placement: NewPlacement([]int{v0}), V0: v0}, nil)
	}
	if p.v0 != 1 || p.evals != 2 {
		t.Fatalf("winner %d after %d exact scorings, want 1 after 2", p.v0, p.evals)
	}
}
