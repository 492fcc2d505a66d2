// Command quorumstat prints the classical quality measures of the built-in
// quorum-system constructions: size, minimum quorum cardinality, optimal
// (Naor–Wool LP) load next to its lower bound, resilience, and the failure
// probability at selected element-failure rates. With -sim it additionally
// places each system on a random geometric network and reports simulated
// access-latency statistics (mean, p50, p95, p99). -clients synthesizes a
// weighted client population, aggregates it into per-node demand rates
// (internal/agg), and weights both the placement objective and the simulated
// access mix by it; -landmarks builds a k-row sparse landmark metric of the
// same network and reports its maximum sampled stretch against exact
// distances.
//
// With -trace-out the simulated accesses are additionally captured as
// per-access traces (one probe span per contacted quorum member) and
// written as Chrome trace-event JSON loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing, together with a plain-text
// per-node/per-quorum latency-percentile breakdown on stdout. -trace-sample
// thins the capture to a deterministic 1-in-k sample of the accesses, or
// takes a preset: "fine" (1 in 16) for per-access diagnosis, "coarse" (1
// in 1024) to keep exports of
// multi-million-access runs small; -timeseries adds gauge counter
// tracks sampled at the given virtual-time interval. Runs are seeded
// (-seed, default 1), so traces are reproducible.
//
// -sim-workers sets the simulator's worker shards (0, the default, runs
// one worker); the output is bitwise identical for every N — same seed +
// any worker count => identical stats, traces and time series, merged in
// canonical order.
//
// With -slo the simulated accesses are additionally folded into rolling
// virtual-time windows (span -slo-window) tracking p50/p99/p99.9 access
// delay, per-node load skew, and abort/retry burn rates; the window table
// is printed and the process exits nonzero if any window breaches a target
// — the CI-facing SLO budget check. -metrics-addr serves live telemetry
// (Prometheus /metrics, JSON /metrics.json for cmd/qppmon) while running;
// -metrics-hold keeps the endpoint up afterwards.
//
// With -heat each simulated run additionally feeds a workload heat sketch
// (internal/heat): per-client/per-node access totals, heavy hitters, the
// total-variation drift of the observed demand from the demand the
// placement was solved for (the aggregated -clients rates, or uniform),
// and a plan-vs-actual delay attribution splitting the prediction gap
// into drift vs residual. -drift-threshold turns the drift score into a
// CI gate: the process exits nonzero if any system's drift TV exceeds it,
// mirroring -slo.
//
// Usage:
//
//	quorumstat [-p 0.1,0.2,0.3] [-system grid:3] [-sim 200 -nodes 16 -seed 1]
//	           [-clients 100000] [-landmarks 8]
//	           [-sim-workers 4]
//	           [-trace-out t.json] [-trace-sample 10|fine|coarse] [-timeseries 0.5]
//	           [-slo p99=4,skew=3 [-slo-window 25]]
//	           [-heat [-drift-threshold 0.2]]
//	           [-metrics-addr 127.0.0.1:9464 [-metrics-hold 30s]]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	qp "quorumplace"
	"quorumplace/internal/obs/export"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "quorumstat: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("quorumstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	probs := fs.String("p", "0.05,0.1,0.2,0.3", "comma-separated element failure probabilities")
	only := fs.String("system", "", "show a single system: "+qp.SystemGrammar)
	simN := fs.Int("sim", 0, "simulate N accesses per client on a geometric network and print latency percentiles")
	nodes := fs.Int("nodes", 16, "network size for -sim")
	clients := fs.Int("clients", 0, "with -sim: synthesize this many weighted clients, aggregate them into per-node demand rates, and weight placement + simulation by them")
	landmarks := fs.Int("landmarks", 0, "with -sim: also build a k-landmark sparse metric of the sim network and report its max sampled stretch")
	seed := fs.Int64("seed", 1, "random seed for -sim (fixed default keeps traces reproducible)")
	simWorkers := fs.Int("sim-workers", 0, "with -sim: simulator worker shards; 0 = one worker (identical output for every N)")
	traceOut := fs.String("trace-out", "", "with -sim: write per-access traces as Chrome trace-event JSON (Perfetto) to this file")
	traceSample := fs.String("trace-sample", "1", "with -trace-out: record a deterministic 1-in-k sample of the accesses, or a preset: fine (1 in 16), coarse (1 in 1024)")
	timeseries := fs.Float64("timeseries", 0, "with -trace-out: sample gauge counters every this many virtual-time units")
	sloSpec := fs.String("slo", "", "with -sim: windowed SLO targets, e.g. p99=4,p999=6,skew=2.5 (exit nonzero on violation)")
	sloWindow := fs.Float64("slo-window", 25, "with -slo: SLO window span in virtual-time units")
	heatOn := fs.Bool("heat", false, "with -sim: feed each run into a workload heat sketch and print drift/heavy-hitter/attribution reports")
	driftThreshold := fs.Float64("drift-threshold", 0, "with -heat: exit nonzero if any system's drift TV vs its plan demand exceeds this")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics (Prometheus /metrics, JSON /metrics.json) on this address while running")
	metricsHold := fs.Duration("metrics-hold", 0, "with -metrics-addr: keep serving this long after the tables print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flags explicitly set on the command line, so dependent flags are
	// rejected (not silently ignored) even when set to their default value.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["metrics-hold"] && *metricsAddr == "" {
		return fmt.Errorf("-metrics-hold requires -metrics-addr")
	}
	if set["trace-sample"] && *traceOut == "" {
		return fmt.Errorf("-trace-sample requires -trace-out")
	}
	if set["timeseries"] && *traceOut == "" {
		return fmt.Errorf("-timeseries requires -trace-out")
	}
	if set["slo-window"] && *sloSpec == "" {
		return fmt.Errorf("-slo-window requires -slo")
	}

	ps, err := parseProbs(*probs)
	if err != nil {
		return err
	}
	if *simN > 0 && *nodes < 2 {
		return fmt.Errorf("-nodes %d too small for -sim", *nodes)
	}
	if *clients > 0 && *simN <= 0 {
		return fmt.Errorf("-clients requires -sim")
	}
	if *landmarks > 0 && *simN <= 0 {
		return fmt.Errorf("-landmarks requires -sim")
	}
	if *heatOn && *simN <= 0 {
		return fmt.Errorf("-heat requires -sim")
	}
	if *simWorkers != 0 && *simN <= 0 {
		return fmt.Errorf("-sim-workers requires -sim")
	}
	if *simWorkers < 0 {
		return fmt.Errorf("-sim-workers %d, want >= 0", *simWorkers)
	}
	if *driftThreshold != 0 && !*heatOn {
		return fmt.Errorf("-drift-threshold requires -heat")
	}
	if *driftThreshold < 0 || *driftThreshold > 1 {
		return fmt.Errorf("-drift-threshold %v outside [0,1]", *driftThreshold)
	}

	systems := defaultSystems()
	if *only != "" {
		s, err := qp.ParseSystem(*only)
		if err != nil {
			return err
		}
		systems = []*qp.System{s}
	}

	sampleN, err := qp.ParseSimTraceSample(*traceSample)
	if err != nil {
		return err
	}
	var rec *qp.SimRecorder
	if *traceOut != "" {
		if *simN <= 0 {
			return fmt.Errorf("-trace-out requires -sim")
		}
		rec = qp.NewSimRecorder(0, sampleN, *timeseries)
	}
	var sloTargets qp.SimSLOTargets
	if *sloSpec != "" {
		if *simN <= 0 {
			return fmt.Errorf("-slo requires -sim")
		}
		if *sloWindow <= 0 {
			return fmt.Errorf("-slo-window %v, want > 0", *sloWindow)
		}
		t, err := qp.ParseSimSLOTargets(*sloSpec)
		if err != nil {
			return err
		}
		sloTargets = t
		if rec == nil {
			// SLO accounting rides on a recorder; without -trace-out use one
			// that keeps no traces (huge sampling stride, minimal ring).
			rec = qp.NewSimRecorder(1, 1<<30, 0)
		}
		rec.EnableSLO(*sloWindow)
	}
	finish, err := export.Instrumentation{MetricsAddr: *metricsAddr, MetricsHold: *metricsHold}.Start("quorumstat", stderr)
	if err != nil {
		return err
	}
	defer finish()

	var heatReports []systemHeat
	fmt.Fprintf(stdout, "%-18s  %5s  %7s  %6s  %9s  %9s  %10s  %3s", "system", "n", "quorums", "c(S)", "opt load", "load LB", "resilience", "ND")
	for _, p := range ps {
		fmt.Fprintf(stdout, "  %9s", fmt.Sprintf("F(%.2g)", p))
	}
	if *simN > 0 {
		fmt.Fprintf(stdout, "  %8s  %8s  %8s  %8s", "sim mean", "sim p50", "sim p95", "sim p99")
	}
	fmt.Fprintln(stdout)
	for _, s := range systems {
		// A measure whose analysis returns its error (the optimal-strategy
		// LP past its tableau budget, the others past 64 elements or past
		// the search budget) prints n/a, as F(p) does past 20.
		load, nd, res := "n/a", "n/a", "n/a"
		if _, l, err := qp.OptimalStrategy(s); err == nil {
			load = fmt.Sprintf("%.4f", l)
		}
		if ok, err := qp.IsNonDominated(s); err == nil {
			nd = "no"
			if ok {
				nd = "yes"
			}
		}
		if r, err := qp.Resilience(s); err == nil {
			res = strconv.Itoa(r)
		}
		fmt.Fprintf(stdout, "%-18s  %5d  %7d  %6d  %9s  %9.4f  %10s  %3s",
			s.Name(), s.Universe(), s.NumQuorums(), qp.MinQuorumSize(s), load, qp.LoadLowerBound(s), res, nd)
		for _, p := range ps {
			f, err := qp.FailureProbability(s, p)
			if err != nil {
				fmt.Fprintf(stdout, "  %9s", "n/a")
				continue
			}
			fmt.Fprintf(stdout, "  %9.4f", f)
		}
		if *simN > 0 {
			if rec != nil {
				rec.NextRunLabel(s.Name())
			}
			sim, hr, err := simulateSystem(s, *nodes, *simN, *clients, *simWorkers, *seed, rec, *heatOn)
			if err != nil {
				return fmt.Errorf("%s: sim: %v", s.Name(), err)
			}
			fmt.Fprintf(stdout, "  %8.4f  %8.4f  %8.4f  %8.4f", sim.Mean, sim.P50, sim.P95, sim.P99)
			if hr != nil {
				hr.Name = s.Name()
				heatReports = append(heatReports, *hr)
			}
		}
		fmt.Fprintln(stdout)
	}
	if *landmarks > 0 {
		// Same construction and seed as simulateSystem, so the stretch
		// report describes the exact network the simulations ran on.
		rng := rand.New(rand.NewSource(*seed))
		g := qp.RandomGeometric(*nodes, 0.4, rng)
		lm, err := qp.NewLandmarkMetric(g, *landmarks)
		if err != nil {
			return err
		}
		sources := 8
		if sources > *nodes {
			sources = *nodes
		}
		stretch, err := lm.ValidateSampled(g, sources, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nlandmark metric: k=%d rows (%d floats vs %d dense), max sampled stretch %.4f over %d sources (bounds verified)\n",
			lm.K(), lm.K()**nodes, *nodes**nodes, stretch, sources)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rec.Breakdown())
		fmt.Fprintf(stdout, "wrote %s — open it at ui.perfetto.dev or chrome://tracing\n", *traceOut)
	}
	var driftBreaches []string
	if *heatOn {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "workload heat (drift measured against each system's plan demand):")
		for _, h := range heatReports {
			fmt.Fprintf(stdout, "\n%s:\n%s", h.Name, h.Report)
			if *driftThreshold > 0 && h.TV > *driftThreshold {
				driftBreaches = append(driftBreaches,
					fmt.Sprintf("%s: drift TV %.4f > threshold %.4f", h.Name, h.TV, *driftThreshold))
			}
		}
		if *driftThreshold > 0 && len(driftBreaches) == 0 {
			fmt.Fprintf(stdout, "\nall systems within drift threshold %.4f\n", *driftThreshold)
		}
	}
	if *sloSpec != "" {
		windows := rec.SLOWindows()
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, qp.FormatSimSLOWindows(windows))
		if violations := qp.CheckSimSLO(windows, sloTargets); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(stderr, "quorumstat: SLO violation: %s\n", v)
			}
			return fmt.Errorf("%d SLO window violations", len(violations))
		}
		fmt.Fprintln(stdout, "all SLO targets held in every window")
	}
	if len(driftBreaches) > 0 {
		for _, b := range driftBreaches {
			fmt.Fprintf(stderr, "quorumstat: drift alert: %s\n", b)
		}
		return fmt.Errorf("%d drift threshold breaches", len(driftBreaches))
	}
	return nil
}

// simSummary is the simulated access-latency digest printed per system.
type simSummary struct {
	Mean, P50, P95, P99 float64
}

// systemHeat is one system's heat-sketch digest: the drift TV gating the
// -drift-threshold check plus the rendered report.
type systemHeat struct {
	Name   string
	TV     float64
	Report string
}

// simulateSystem places sys greedily on a random geometric network with
// auto-sized uniform capacities and runs the parallel-access simulator,
// returning the latency digest. A positive clients count synthesizes that
// many weighted clients (seeded), aggregates them into per-node demand
// rates, and installs the rates on the instance, so both the greedy
// placement objective and the simulator's per-client access weighting see
// the aggregated population instead of uniform demand. A non-nil recorder
// captures per-access traces and time-series samples of the run. With
// heatOn the run feeds a workload heat sketch and the returned systemHeat
// carries its drift-vs-plan score, heavy hitters, and the plan-vs-actual
// delay attribution.
func simulateSystem(sys *qp.System, nodes, accesses, clients, workers int, seed int64, rec *qp.SimRecorder, heatOn bool) (*simSummary, *systemHeat, error) {
	rng := rand.New(rand.NewSource(seed))
	g := qp.RandomGeometric(nodes, 0.4, rng)
	m, err := qp.NewMetricFromGraph(g)
	if err != nil {
		return nil, nil, err
	}
	st := qp.Uniform(sys.NumQuorums())
	capVal, err := qp.AutoCapacity(sys, st, nodes)
	if err != nil {
		return nil, nil, err
	}
	caps := make([]float64, nodes)
	for i := range caps {
		caps[i] = capVal
	}
	ins, err := qp.NewInstance(m, caps, sys, st)
	if err != nil {
		return nil, nil, err
	}
	if clients > 0 {
		cs := make([]qp.Client, clients)
		for i := range cs {
			cs[i] = qp.Client{Node: rng.Intn(nodes), Weight: float64(1 + rng.Intn(9))}
		}
		d := qp.NewDemand(nodes)
		if err := d.AddClients(cs); err != nil {
			return nil, nil, err
		}
		if err := ins.SetRates(d.Rates()); err != nil {
			return nil, nil, err
		}
	}
	pl, err := qp.BestGreedyPlacement(ins)
	if err != nil {
		return nil, nil, err
	}
	var ht *qp.HeatSketch
	if heatOn {
		ht = qp.NewHeatSketch(qp.HeatOptions{})
	}
	stats, err := qp.RunSim(qp.SimConfig{
		Instance:          ins,
		Placement:         pl,
		Mode:              qp.SimParallel,
		AccessesPerClient: accesses,
		Seed:              seed,
		Workers:           workers,
		Recorder:          rec,
		Heat:              ht,
	})
	if err != nil {
		return nil, nil, err
	}
	var hr *systemHeat
	if ht != nil {
		hr, err = heatReport(ins, pl, ht, stats.AvgLatency)
		if err != nil {
			return nil, nil, err
		}
	}
	return &simSummary{
		Mean: stats.AvgLatency,
		P50:  stats.Percentile(0.5),
		P95:  stats.Percentile(0.95),
		P99:  stats.Percentile(0.99),
	}, hr, nil
}

// heatReport renders one run's sketch: cumulative drift against the demand
// the placement was solved for (ins.Rates, or uniform when nil), the top
// heavy hitters, and the plan-vs-actual attribution of the mean-latency
// gap (pure Run has no queueing or failures, so those legs are zero and
// the gap splits into drift vs residual sampling noise).
func heatReport(ins *qp.Instance, pl qp.Placement, ht *qp.HeatSketch, measured float64) (*systemHeat, error) {
	d, err := ht.Drift(ins.Rates)
	if err != nil {
		return nil, err
	}
	totals := ht.ClientTotals()
	live := make([]float64, len(totals))
	for i, c := range totals {
		live[i] = float64(c)
	}
	predPlan := ins.AvgMaxDelay(pl)
	predLive, err := qp.PredictDelayUnderRates(ins, pl, false, live)
	if err != nil {
		return nil, err
	}
	a := qp.AttributeDelayGap(predPlan, predLive, measured, 0, 0)
	var b strings.Builder
	b.WriteString(d.Format())
	for _, e := range ht.TopClients(3) {
		fmt.Fprintf(&b, "hot client %3d: %6d accesses\n", e.Key, e.Count)
	}
	for _, e := range ht.TopNodes(3) {
		fmt.Fprintf(&b, "hot node   %3d: %6d messages\n", e.Key, e.Count)
	}
	b.WriteString(a.Format())
	return &systemHeat{TV: d.TV, Report: b.String()}, nil
}

func defaultSystems() []*qp.System {
	return []*qp.System{
		qp.SingletonSystem(),
		qp.Majority(5, 3),
		qp.Majority(7, 4),
		qp.Grid(2),
		qp.Grid(3),
		qp.Grid(4),
		qp.FPP(2),
		qp.FPP(3),
		qp.Wheel(6),
		qp.StarSystem(6),
		qp.TreeSystem(2),
		qp.CrumblingWalls([]int{2, 3, 2}),
		qp.RecursiveMajority(2),
		qp.WeightedMajority([]int{3, 2, 2, 1, 1}),
	}
}

func parseProbs(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := strconv.ParseFloat(part, 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("bad probability %q", part)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no probabilities given")
	}
	return out, nil
}
