package eval

import (
	"fmt"
	"math/rand"
	"reflect"

	"quorumplace/internal/daemon"
	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/netsim"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// --- E21: daemon drift ramp (netsim-in-the-loop control) -----------------------------

// e21HeatOpts uses run-scale epochs: netsim's virtual clock spans thousands
// of unit-length epochs per run and schedules clients in contiguous time
// blocks, so a fine-grained EWMA would remember only the last-scheduled
// clients. One epoch per simulation run (the length generously covers any
// run duration) with a one-epoch half-life makes RecentDrift compare
// whole-run demand mixes, reacting within a run or two of a shift.
var e21HeatOpts = heat.Options{EpochLen: 1 << 20, HalfLife: 1}

// e21Pipeline is one independent copy of the E21 closed loop: a synthesized
// instance, its plan demand, and a placement daemon deployed on it.
type e21Pipeline struct {
	ins  *placement.Instance
	plan []float64
	hot  []int
	d    *daemon.Daemon
}

// e21Build constructs the pipeline deterministically from the suite seed, so
// two builds are bitwise-identical replicas.
func (s *Suite) e21Build(n int) (*e21Pipeline, error) {
	rng := rand.New(rand.NewSource(s.Seed + 21))
	g := graph.Path(n)
	sys := quorum.Grid(2)
	ins, err := makeInstance(g, sys, rng)
	if err != nil {
		return nil, err
	}
	// Plan demand as in E19: the remote clients (path ends) get a
	// near-zero weight ε, so the initial placement rationally ignores
	// exactly the clients the ramp will later flood.
	hot := remoteClients(ins, n/8)
	const eps = 0.0005
	plan := make([]float64, n)
	cold := (1 - eps*float64(len(hot))) / float64(n-len(hot))
	for v := range plan {
		plan[v] = cold
	}
	for _, v := range hot {
		plan[v] = eps
	}
	if err := ins.SetRates(plan); err != nil {
		return nil, err
	}
	pl, err := placement.BestGreedyPlacement(ins)
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Config{
		Instance:       ins,
		Initial:        pl,
		PlanDemand:     plan,
		Shards:         2,
		Lambda:         0.1,
		DriftThreshold: 0.1,
		Heat:           e21HeatOpts,
	})
	if err != nil {
		return nil, err
	}
	return &e21Pipeline{ins: ins, plan: plan, hot: hot, d: d}, nil
}

// e21Step runs one epoch of the closed loop: deploy the daemon's current
// placement in the simulator under the epoch's true demand, feed the run's
// heat sketch back into the daemon, and tick the control loop once.
func (p *e21Pipeline) e21Step(s *Suite, k int, alpha float64, apc int) (daemon.TickRecord, *netsim.Stats, error) {
	n := p.ins.M.N()
	rates := make([]float64, n)
	for v := range rates {
		rates[v] = (1 - alpha) * p.plan[v]
	}
	for _, v := range p.hot {
		rates[v] += alpha / float64(len(p.hot))
	}
	if err := p.ins.SetRates(rates); err != nil {
		return daemon.TickRecord{}, nil, err
	}
	ht := heat.New(e21HeatOpts)
	stats, err := netsim.Run(netsim.Config{
		Instance:          p.ins,
		Placement:         p.d.Placement(),
		Mode:              netsim.Parallel,
		AccessesPerClient: apc,
		Seed:              s.Seed + 2100 + int64(k),
		Recorder:          s.Recorder,
		Heat:              ht,
		Workers:           s.SimWorkers,
	})
	if err != nil {
		return daemon.TickRecord{}, nil, err
	}
	if err := p.d.IngestSketch(ht); err != nil {
		return daemon.TickRecord{}, nil, err
	}
	rec, err := p.d.Tick()
	if err != nil {
		return daemon.TickRecord{}, nil, err
	}
	return rec, stats, nil
}

// E21DaemonDriftRamp closes the loop the paper leaves open: the one-shot
// batch solve becomes a long-lived control system. The discrete-event
// simulator deploys the daemon's current placement each epoch under a
// demand that ramps onto the plan's ε-weighted remote clients; the run's
// heat sketch is the only signal the daemon sees. The drift alert trips a
// K-shard re-plan cycle (one warm-started migration LP per tick, λ bounding
// movement), after which the predicted delay under the live demand recovers
// while the composed placement stays within the Theorem 5.1 load guarantee.
//
// The whole pipeline — simulator, sketch ingestion, shard LPs, rounding —
// is replayed twice from the suite seed; the "replay" column reports
// whether the two copies produced bitwise-identical tick records and
// simulator stats, the daemon's determinism contract.
func (s *Suite) E21DaemonDriftRamp() (*Table, error) {
	t := &Table{
		ID:       "E21",
		Title:    "Placement daemon under a drift ramp (netsim in the loop)",
		PaperRef: "§5 delay-vs-movement trade-off run as a live control loop (extension; not in paper)",
		Columns:  []string{"epoch", "alpha", "drift TV", "alert", "shard", "warm", "moves", "pred delay", "sim p99", "replay"},
	}
	n := 16
	apc := s.trials(300, 1000)
	if !s.Quick {
		n = 24
	}
	a, err := s.e21Build(n)
	if err != nil {
		return nil, err
	}
	b, err := s.e21Build(n)
	if err != nil {
		return nil, err
	}

	// Quiet baseline, ramp, then hold: the alert should trip on the ramp
	// and the 2-shard cycle should finish with epochs to spare, so the
	// tail of the table shows the re-planned placement absorbing the hot
	// demand.
	alphas := []float64{0, 0.05, 0.5, 0.5, 0.5, 0.5, 0.5}
	for k, alpha := range alphas {
		recA, statsA, err := a.e21Step(s, k, alpha, apc)
		if err != nil {
			return nil, err
		}
		recB, statsB, err := b.e21Step(s, k, alpha, apc)
		if err != nil {
			return nil, err
		}
		// DeepEqual before Percentile: Stats memoizes a sort cache, and the
		// comparison covers the raw per-access samples.
		replay := "no"
		if reflect.DeepEqual(recA, recB) && reflect.DeepEqual(statsA, statsB) {
			replay = "yes"
		}
		shard := "-"
		if recA.Shard >= 0 {
			shard = itoa(recA.Shard)
		}
		t.AddRow(itoa(k), F(alpha), F(recA.DriftTV), yesNo(recA.Alerted), shard,
			yesNo(recA.Warm), itoa(len(recA.Moves)), F(recA.AvgDelay),
			F(statsA.Percentile(0.99)), replay)
	}
	if !reflect.DeepEqual(a.d.Placement().Map(), b.d.Placement().Map()) {
		return nil, fmt.Errorf("E21: replayed pipelines diverged in final placement")
	}
	a.ins.Rates = nil
	b.ins.Rates = nil
	t.Notes = append(t.Notes,
		fmt.Sprintf("hot set: the %d remote clients (path ends) the plan demand weighted at ε each; drift threshold 0.1, λ = 0.1, 2 shards", len(a.hot)),
		"replay compares tick records and raw simulator stats bitwise across two full pipeline copies — the daemon's determinism contract")
	return t, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
