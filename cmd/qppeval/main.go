// Command qppeval runs the paper-reproduction experiment suite (E1–E11 of
// DESIGN.md) and prints one table per experiment, pairing each paper bound
// with the measured quantity. EXPERIMENTS.md's full-output appendix is its
// output at -seed 1, and TestExperimentsAppendixIsCurrent fails on drift.
//
// -trace-out attaches an access recorder to the suite, so every
// discrete-event simulation the experiments run (E11 validation, E15
// queueing, E19–E21) captures per-access traces; they are written as
// one Chrome trace-event JSON file loadable in Perfetto, with solver
// telemetry spans on a separate track when -stats or -trace is also given.
// All simulations derive their seeds from -seed (fixed default 1), so
// traces reproduce. -trace-sample takes a 1-in-k sampling rate or a preset
// ("fine" = 1 in 16, "coarse" = 1 in 1024 for multi-million-access runs).
//
// -sim-workers sets the simulator's worker shards for the suite (0 runs
// one worker); the output is bitwise identical for every N (same seed +
// any worker count => identical stats and traces), so results are
// comparable across machines of different widths.
//
// Usage:
//
//	qppeval [-seed N] [-quick] [-csv] [-only E7] [-trace FILE] [-stats]
//	        [-trace-out t.json] [-trace-sample 100|fine|coarse] [-timeseries 0.5]
//	        [-sim-workers 4]
//	        [-heat [-drift-threshold 0.5]]
//	        [-metrics-addr 127.0.0.1:9464 [-metrics-hold 30s]]
//
// -metrics-addr serves the live telemetry snapshot over HTTP while the
// experiments run: Prometheus text exposition at /metrics and a JSON
// payload at /metrics.json (the cmd/qppmon dashboard polls the latter);
// -metrics-hold keeps the endpoint up after the run so short runs can
// still be scraped.
//
// -heat attaches a workload heat sketch to the suite, so every simulated
// access across the experiments is folded into per-client/per-node totals
// and EWMA rates; a drift/heavy-hitter report (against uniform demand —
// the suite's experiments mostly run unweighted mixes) is printed to
// stderr and published into the telemetry snapshot as heat.* gauges.
// -drift-threshold exits nonzero when the cumulative drift TV exceeds it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	qp "quorumplace"
	"quorumplace/internal/eval"
	"quorumplace/internal/obs/export"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "qppeval: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qppeval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed for instance generation")
	quick := fs.Bool("quick", false, "run reduced instance counts (seconds instead of minutes)")
	csv := fs.Bool("csv", false, "emit CSV bodies instead of aligned tables")
	md := fs.Bool("md", false, "emit GitHub-flavored markdown tables")
	only := fs.String("only", "", "run a single experiment by id (e.g. E7)")
	traceFile := fs.String("trace", "", "write a JSONL telemetry trace (solver spans and counters) to this file")
	traceOut := fs.String("trace-out", "", "write per-access simulation traces as Chrome trace-event JSON (Perfetto) to this file")
	traceSample := fs.String("trace-sample", "1", "with -trace-out: record a deterministic 1-in-k sample of the accesses, or a preset: fine (1 in 16), coarse (1 in 1024)")
	timeseries := fs.Float64("timeseries", 0, "with -trace-out: sample simulator gauges every this many virtual-time units")
	stats := fs.Bool("stats", false, "print a telemetry summary table to stderr")
	metricsAddr := fs.String("metrics-addr", "", "serve live metrics (Prometheus /metrics, JSON /metrics.json) on this address while running")
	metricsHold := fs.Duration("metrics-hold", 0, "with -metrics-addr: keep serving this long after the experiments finish")
	heatOn := fs.Bool("heat", false, "fold every simulated access into a workload heat sketch and print a drift report to stderr")
	driftThreshold := fs.Float64("drift-threshold", 0, "with -heat: exit nonzero if the cumulative drift TV vs uniform demand exceeds this")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file")
	scaleNodes := fs.Int("scale-nodes", 0, "append an E18 row with this many tree nodes (e.g. 100000 for the headline run)")
	scaleClients := fs.Int("scale-clients", 0, "append an E18 row with this many raw clients (e.g. 1000000)")
	simWorkers := fs.Int("sim-workers", 0, "simulator worker shards for the experiment suite; 0 = one worker (identical output for every N)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *driftThreshold != 0 && !*heatOn {
		return fmt.Errorf("-drift-threshold requires -heat")
	}
	if *simWorkers < 0 {
		return fmt.Errorf("-sim-workers %d, want >= 0", *simWorkers)
	}
	if *driftThreshold < 0 || *driftThreshold > 1 {
		return fmt.Errorf("-drift-threshold %v outside [0,1]", *driftThreshold)
	}

	finish, err := export.Instrumentation{
		CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *traceFile, Stats: *stats,
		MetricsAddr: *metricsAddr, MetricsHold: *metricsHold,
	}.Start("qppeval", stderr)
	if err != nil {
		return err
	}
	defer finish()

	sampleN, err := qp.ParseSimTraceSample(*traceSample)
	if err != nil {
		return err
	}
	s := &eval.Suite{Seed: *seed, Quick: *quick, ScaleNodes: *scaleNodes, ScaleClients: *scaleClients, SimWorkers: *simWorkers}
	if *traceOut != "" {
		rec := qp.NewSimRecorder(0, sampleN, *timeseries)
		s.Recorder = rec
		// Deferred after finish, so it runs first (LIFO), while the
		// collector is still installed and Snapshot() works.
		defer func() {
			t := &qp.ChromeTrace{}
			rec.AppendChromeTrace(t)
			if snap := qp.Snapshot(); snap != nil {
				snap.AppendChromeTrace(t, 0)
			}
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(stderr, "qppeval: trace-out: %v\n", err)
				return
			}
			defer f.Close()
			if err := t.Write(f); err != nil {
				fmt.Fprintf(stderr, "qppeval: trace-out: %v\n", err)
				return
			}
			fmt.Fprint(stderr, rec.Breakdown())
			fmt.Fprintf(stderr, "qppeval: wrote %s — open it at ui.perfetto.dev\n", *traceOut)
		}()
	}

	var ht *qp.HeatSketch
	if *heatOn {
		ht = qp.NewHeatSketch(qp.HeatOptions{})
		s.Heat = ht
	}

	ran := 0
	for _, e := range eval.Experiments() {
		if *only != "" && e.ID != *only {
			continue
		}
		t, err := e.Run(s)
		if err != nil {
			return fmt.Errorf("%s: %v", e.ID, err)
		}
		switch {
		case *csv:
			fmt.Fprintf(stdout, "# %s %s\n%s\n", t.ID, t.Title, t.CSV())
		case *md:
			fmt.Fprintln(stdout, t.Markdown())
		default:
			fmt.Fprintln(stdout, t.Render())
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches -only=%s", *only)
	}
	if ht != nil {
		// Publish while the collector (if any) is still installed, so the
		// heat.* gauges reach /metrics during a -metrics-hold window.
		ht.Publish(nil)
		d, err := ht.Drift(nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "qppeval: heat: %d accesses, %d messages across %d epochs\n",
			ht.Accesses(), ht.Messages(), ht.Epochs())
		fmt.Fprint(stderr, prefixLines("qppeval: heat: ", d.Format()))
		for _, e := range ht.TopClients(5) {
			fmt.Fprintf(stderr, "qppeval: heat: hot client %d: %d accesses\n", e.Key, e.Count)
		}
		if *driftThreshold > 0 && d.TV > *driftThreshold {
			return fmt.Errorf("heat drift TV %.4f exceeds threshold %.4f", d.TV, *driftThreshold)
		}
	}
	return nil
}

// prefixLines prepends p to every non-empty line of s.
func prefixLines(p, s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString(p)
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
