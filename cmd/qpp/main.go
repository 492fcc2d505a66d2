// Command qpp solves a Quorum Placement Problem instance built from flags
// and reports the placement, its delay, and its load profile.
//
// Usage examples:
//
//	qpp -graph geometric -nodes 20 -system grid:3 -alpha 2
//	qpp -graph tree -nodes 15 -system majority:5:3 -objective total
//	qpp -graph path -nodes 12 -system fpp:2 -cap 1.5 -seed 7
//	qpp -nodes 12 -system grid:2 -trace trace.jsonl -stats
//	qpp -nodes 12 -system grid:2 -sim 500 -metrics-addr 127.0.0.1:0 -metrics-hold 30s
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	qp "quorumplace"
	"quorumplace/internal/obs/export"
	"quorumplace/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "qpp: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qpp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphKind   = fs.String("graph", "geometric", "topology: geometric|path|cycle|tree|erdos|hypercube|cliques")
		graphFile   = fs.String("graphfile", "", "read the topology from an edge-list file instead of generating one")
		nodes       = fs.Int("nodes", 16, "number of network nodes")
		system      = fs.String("system", "grid:2", "quorum system: "+qp.SystemGrammar)
		alpha       = fs.Float64("alpha", 2, "filtering parameter α > 1 (Theorem 3.7 knob)")
		capFlag     = fs.Float64("cap", 0, "uniform node capacity; 0 = auto (just enough for a balanced placement)")
		objective   = fs.String("objective", "max", "delay objective: max (Theorem 1.2) or total (Theorem 1.4)")
		seed        = fs.Int64("seed", 1, "random seed")
		specArg     = fs.Bool("specialized", false, "use the capacity-respecting §4 layout (grid/majority systems only)")
		saveSpec    = fs.String("savespec", "", "write the built instance as a JSON spec to this file and exit")
		loadSpec    = fs.String("loadspec", "", "load the instance from a JSON spec file (overrides -graph/-system/-cap)")
		audit       = fs.Bool("audit", true, "print the placement audit report")
		simN        = fs.Int("sim", 0, "simulate N accesses per client and print the latency distribution")
		traceFile   = fs.String("trace", "", "write a JSONL telemetry trace (solver spans and counters) to this file")
		stats       = fs.Bool("stats", false, "print a telemetry summary table to stderr")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics (Prometheus /metrics, JSON /metrics.json) on this address while running")
		metricsHold = fs.Duration("metrics-hold", 0, "with -metrics-addr: keep serving this long after the report prints")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	finish, err := export.Instrumentation{
		CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *traceFile, Stats: *stats,
		MetricsAddr: *metricsAddr, MetricsHold: *metricsHold,
	}.Start("qpp", stderr)
	if err != nil {
		return err
	}
	defer finish()

	rng := rand.New(rand.NewSource(*seed))
	var g *qp.Graph
	if *graphFile != "" {
		f, ferr := os.Open(*graphFile)
		if ferr != nil {
			return ferr
		}
		g, err = qp.ParseEdgeList(f)
		f.Close()
		if err == nil {
			*nodes = g.N()
			*graphKind = *graphFile
		}
	} else {
		g, err = buildGraph(*graphKind, *nodes, rng)
	}
	if err != nil {
		return err
	}
	m, err := qp.NewMetricFromGraph(g)
	if err != nil {
		return err
	}
	sys, err := qp.ParseSystem(*system)
	if err != nil {
		return err
	}
	st := qp.Uniform(sys.NumQuorums())

	caps := make([]float64, *nodes)
	capVal := *capFlag
	if capVal <= 0 {
		if capVal, err = qp.AutoCapacity(sys, st, *nodes); err != nil {
			return err
		}
	}
	for i := range caps {
		caps[i] = capVal
	}
	ins, err := qp.NewInstance(m, caps, sys, st)
	if err != nil {
		return err
	}

	if *loadSpec != "" {
		f, err := os.Open(*loadSpec)
		if err != nil {
			return err
		}
		spec, err := qp.ReadSpec(f)
		f.Close()
		if err != nil {
			return err
		}
		g, ins, err = buildFromSpec(spec)
		if err != nil {
			return err
		}
		sys = ins.Sys
		st = ins.Strat
		*nodes = g.N()
		*graphKind = *loadSpec
		capVal = ins.Cap[0]
		caps = ins.Cap
	}
	if *saveSpec != "" {
		spec, err := qp.Spec(sys.Name(), g, ins)
		if err != nil {
			return err
		}
		f, err := os.Create(*saveSpec)
		if err != nil {
			return err
		}
		if err := qp.WriteSpec(f, spec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote instance spec to %s\n", *saveSpec)
		return nil
	}

	fmt.Fprintf(stdout, "instance: %s on %s (%d nodes), cap(v)=%.4g, total load %.4g\n",
		sys.Name(), *graphKind, *nodes, capVal, ins.TotalLoad())

	var pl qp.Placement
	switch {
	case *objective == "total":
		res, err := qp.SolveTotalDelay(ins)
		if err != nil {
			return err
		}
		pl = res.Placement
		fmt.Fprintf(stdout, "total-delay solver (Thm 1.4): AvgΓ = %.4g (LP lower bound %.4g), guarantee: ≤ OPT at ≤ 2·cap\n",
			res.AvgDelay, res.LPBound)
	case *specArg && strings.HasPrefix(*system, "grid:"):
		res, avg, err := qp.SolveGridQPP(ins)
		if err != nil {
			return err
		}
		pl = res.Placement
		fmt.Fprintf(stdout, "grid layout (Thm 1.3): AvgΔ = %.4g via v0=%d, capacities respected exactly\n", avg, res.V0)
	case *specArg && strings.HasPrefix(*system, "majority:"):
		res, avg, err := qp.SolveMajorityQPP(ins, qp.MinQuorumSize(sys))
		if err != nil {
			return err
		}
		pl = res.Placement
		fmt.Fprintf(stdout, "majority layout (Thm 1.3): AvgΔ = %.4g via v0=%d (Eq.19 single-source value %.4g)\n",
			avg, res.V0, res.Formula)
	default:
		res, err := qp.SolveQPP(ins, *alpha)
		if err != nil {
			return err
		}
		pl = res.Placement
		fmt.Fprintf(stdout, "LP-rounding solver (Thm 1.2, α=%.3g): AvgΔ = %.4g via v0=%d\n", *alpha, res.AvgMaxDelay, res.BestV0)
		fmt.Fprintf(stdout, "guarantee: delay ≤ %.4g×OPT, load ≤ %.3g×cap; relay certificate %.4g\n",
			5**alpha/(*alpha-1), *alpha+1, res.RelayBound)
	}

	fmt.Fprintf(stdout, "capacity violation factor: %.4g\n", ins.CapacityViolation(pl))
	fmt.Fprintln(stdout, "placement (element -> node):")
	for u := 0; u < sys.Universe(); u++ {
		fmt.Fprintf(stdout, "  e%-3d -> v%d\n", u, pl.Node(u))
	}
	loads := ins.NodeLoads(pl)
	fmt.Fprintln(stdout, "node loads:")
	for v, l := range loads {
		if l > 0 {
			fmt.Fprintf(stdout, "  v%-3d load %.4g / cap %.4g\n", v, l, caps[v])
		}
	}

	if *audit {
		report, err := ins.Audit(pl)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\naudit:")
		fmt.Fprint(stdout, report.String())
	}
	if *simN > 0 {
		stats, err := qp.RunSim(qp.SimConfig{
			Instance:          ins,
			Placement:         pl,
			Mode:              qp.SimParallel,
			AccessesPerClient: *simN,
			Seed:              *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nsimulated %d accesses: mean %.4g, p50 %.4g, p95 %.4g, p99 %.4g\n",
			stats.Accesses, stats.AvgLatency,
			stats.Percentile(0.5), stats.Percentile(0.95), stats.Percentile(0.99))
		fmt.Fprint(stdout, viz.Histogram(stats.Latencies(), 10, 40))
	}
	return nil
}

func buildGraph(kind string, n int, rng *rand.Rand) (*qp.Graph, error) {
	switch kind {
	case "geometric":
		return qp.RandomGeometric(n, 0.4, rng), nil
	case "path":
		return qp.Path(n), nil
	case "cycle":
		return qp.Cycle(n), nil
	case "tree":
		return qp.RandomTree(n, 1, 4, rng), nil
	case "erdos":
		return qp.ErdosRenyiConnected(n, 0.3, 0.5, 3, rng), nil
	case "hypercube":
		d := 0
		for 1<<uint(d+1) <= n {
			d++
		}
		return qp.Hypercube(d), nil
	case "cliques":
		size := 4
		k := n / size
		if k < 2 {
			k = 2
		}
		return qp.RingOfCliques(k, size, 5), nil
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

// buildFromSpec rebuilds a graph and instance from a JSON spec.
func buildFromSpec(spec *qp.InstanceSpec) (*qp.Graph, *qp.Instance, error) {
	return spec.Build()
}
