package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/netsim"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// --- E19: workload drift vs delay regression (heat sketches) ------------------------

// E19HeatDrift demonstrates the observability claim behind internal/heat:
// the drift score of a streaming workload sketch rises epochs before the
// measured tail latency regresses, so drift alerting gives a re-planning
// loop lead time that watching p99 alone cannot.
//
// The placement is solved on a path network for a plan demand that gives
// the remote clients (the path ends, the ones with the worst delay under
// any central placement) a near-zero weight ε — the solver rationally
// ignores them. A sequence of epochs then runs the simulator under
// demand that drifts toward exactly those clients: epoch k redirects a
// fraction α_k of all accesses onto the hot set. Each epoch feeds a
// fresh heat sketch; the table reports the sketch's drift TV against the
// plan demand, the predicted delay shift from re-evaluating the
// placement analytically under the live demand estimate (the
// attribution's drift leg), and the simulated p99.
//
// The drift score is a property of the demand mix alone, so it moves as
// soon as α clears the apportionment noise floor n/(2·accesses):
// TV ≈ α. The p99, by contrast, stays pinned to the cold clients' tail
// until the hot accesses themselves amount to more than 1% of the
// stream (α + ε·|H| > 0.01) — only then does the percentile cross into
// the remote clients' latency range. On this ramp that crossing happens
// two epochs after the drift signal is already 3× the noise floor: the
// lead time this experiment pins.
func (s *Suite) E19HeatDrift() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 19))
	t := &Table{
		ID:       "E19",
		Title:    "Workload drift precedes tail-latency regression (heat sketches)",
		PaperRef: "§1 motivation: placements are solved for a demand snapshot; drift detection bounds staleness",
		Columns:  []string{"epoch", "alpha", "drift TV", "top client", "pred shift", "sim p99", "Δp99"},
	}
	n := 16
	apc := s.trials(400, 1000)
	if !s.Quick {
		n = 24
	}
	g := graph.Path(n)
	sys := quorum.Grid(2)
	ins, err := makeInstance(g, sys, rng)
	if err != nil {
		return nil, err
	}
	// Hot set: the n/8 clients with the largest distance-to-everything —
	// on a path, the ends. Rank by MaxDelayFrom under a throwaway uniform
	// placement? No: rank by total distance, which is placement-free and
	// still picks the clients any demand-weighted solver will starve.
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
	// Plan-time prediction under the demand the placement was solved for.
	predPlan := ins.AvgMaxDelay(pl)

	alphas := []float64{0, 0.004, 0.006, 0.008, 0.05, 0.2}
	var p99Base float64
	for k, alpha := range alphas {
		rates := make([]float64, n)
		for v := range rates {
			rates[v] = (1 - alpha) * plan[v]
		}
		for _, v := range hot {
			rates[v] += alpha / float64(len(hot))
		}
		if err := ins.SetRates(rates); err != nil {
			return nil, err
		}
		ht := heat.New(heat.Options{})
		stats, err := netsim.Run(netsim.Config{
			Instance:          ins,
			Placement:         pl,
			Mode:              netsim.Parallel,
			AccessesPerClient: apc,
			Seed:              s.Seed + 1900 + int64(k),
			Recorder:          s.Recorder,
			Heat:              ht,
			Workers:           s.SimWorkers,
		})
		if err != nil {
			return nil, err
		}
		// Drift of the observed stream against the *plan* demand, not the
		// epoch's true rates: the sketch has no access to the latter, which
		// is the point — it reconstructs the shift from the stream alone.
		d, err := ht.Drift(plan)
		if err != nil {
			return nil, err
		}
		totals := ht.ClientTotals()
		live := make([]float64, len(totals))
		for v, c := range totals {
			live[v] = float64(c)
		}
		predLive, err := heat.PredictUnderRates(ins, pl, false, live)
		if err != nil {
			return nil, err
		}
		p99 := stats.Percentile(0.99)
		if k == 0 {
			p99Base = p99
		}
		top := "-"
		if d.Top >= 0 {
			top = fmt.Sprintf("%d", d.Top)
		}
		t.AddRow(itoa(k), F(alpha), F(d.TV), top, F(predLive-predPlan), F(p99), F(p99-p99Base))
	}
	ins.Rates = nil
	t.Notes = append(t.Notes,
		fmt.Sprintf("hot set: the %d remote clients (path ends) the plan demand weighted at ε = %g each", len(hot), eps),
		"drift TV tracks α from the first skewed epoch; p99 stays pinned to the cold tail until hot accesses exceed the 1% percentile mass — drift alerts lead the regression")
	return t, nil
}

// --- E20: flash crowd at production rate (sharded parallel netsim) -----------

// E20FlashCrowd replays a flash-crowd workload — a sudden spike that
// redirects a large fraction α of all accesses onto a small remote client
// set for two epochs, then decays — at an access volume sized for the
// sharded simulator engine (netsim Config.Workers). Every epoch runs
// twice: once under the parallel engine (SimWorkers shards, defaulting to
// 4 when the suite does not override) and once under workers = 1, and the
// "par=seq" column reports whether the two runs were bitwise identical —
// the determinism contract that lets the multicore engine stand in for
// the sequential one in every experiment. The delay columns show the
// flash crowd itself: under the uniform baseline the remote clients
// already own the top latency percentile, so p99 barely moves — the
// regression lands in the mean, which tracks the fraction of accesses
// paying the remote clients' delay and relaxes as the spike decays.
func (s *Suite) E20FlashCrowd() (*Table, error) {
	rng := rand.New(rand.NewSource(s.Seed + 20))
	t := &Table{
		ID:       "E20",
		Title:    "Flash crowd at production rate (sharded parallel simulator)",
		PaperRef: "§5 objective evaluated by simulation at scale; determinism contract of the multicore engine (extension; not in paper)",
		Columns:  []string{"epoch", "alpha", "accesses", "sim mean", "Δmean", "sim p99", "par=seq"},
	}
	n := 16
	apc := s.trials(300, 3000)
	if !s.Quick {
		n = 48
	}
	g := graph.Path(n)
	sys := quorum.Grid(2)
	ins, err := makeInstance(g, sys, rng)
	if err != nil {
		return nil, err
	}
	hot := remoteClients(ins, n/8)
	uniform := make([]float64, n)
	for v := range uniform {
		uniform[v] = 1 / float64(n)
	}
	if err := ins.SetRates(uniform); err != nil {
		return nil, err
	}
	pl, err := placement.BestGreedyPlacement(ins)
	if err != nil {
		return nil, err
	}
	workers := s.SimWorkers
	if workers <= 0 {
		workers = 4
	}
	// Baseline, two spike epochs, decay, recovery.
	alphas := []float64{0, 0.4, 0.4, 0.1, 0}
	var meanBase float64
	for k, alpha := range alphas {
		rates := make([]float64, n)
		for v := range rates {
			rates[v] = (1 - alpha) * uniform[v]
		}
		for _, v := range hot {
			rates[v] += alpha / float64(len(hot))
		}
		if err := ins.SetRates(rates); err != nil {
			return nil, err
		}
		cfg := netsim.Config{
			Instance:          ins,
			Placement:         pl,
			Mode:              netsim.Parallel,
			AccessesPerClient: apc,
			Seed:              s.Seed + 2000 + int64(k),
			Recorder:          s.Recorder,
			Heat:              s.Heat,
			Workers:           workers,
		}
		par, err := netsim.Run(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Workers = 1
		seq, err := netsim.Run(cfg)
		if err != nil {
			return nil, err
		}
		// DeepEqual sees the unexported raw latency samples too, so this is
		// the full trace-level bitwise check, not a summary comparison. It
		// must run before Percentile, which memoizes a sort cache.
		same := "no"
		if reflect.DeepEqual(par, seq) {
			same = "yes"
		}
		if k == 0 {
			meanBase = par.AvgLatency
		}
		t.AddRow(itoa(k), F(alpha), itoa(par.Accesses), F(par.AvgLatency),
			F(par.AvgLatency-meanBase), F(par.Percentile(0.99)), same)
	}
	ins.Rates = nil
	t.Notes = append(t.Notes,
		fmt.Sprintf("flash crowd: %d remote clients (path ends) absorb α of all accesses; %d shard workers vs 1", len(hot), workers),
		"par=seq compares the sharded runs bitwise, raw per-access latencies included — the engine's determinism contract under any worker count")
	return t, nil
}

// remoteClients returns the k clients with the largest total distance to
// all other nodes — the clients any demand-weighted placement will sit
// farthest from. k is clamped to [1, n]; the result is sorted ascending.
func remoteClients(ins *placement.Instance, k int) []int {
	n := ins.M.N()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	total := make([]float64, n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			total[v] += ins.M.D(v, u)
		}
	}
	idx := make([]int, n)
	for v := range idx {
		idx[v] = v
	}
	sort.SliceStable(idx, func(a, b int) bool { return total[idx[a]] > total[idx[b]] })
	out := idx[:k]
	sort.Ints(out)
	return out
}
