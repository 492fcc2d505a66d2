// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload in a closed loop (one caller, each operation issued after
// the previous one returns) against the placement library, the simulator or
// the placement daemon's HTTP API, checks every output, and prints one JSON
// result line:
//
//	go run . --workload plan --seed 1 --seconds 20 --trace 0
//
// Workloads: plan (batch placement, Theorem 1.2 pipeline), simulate
// (netsim throughput on a fixed placement) and daemon (long-uptime control
// loop over HTTP). --trace 0 reports the end-to-end metrics; --trace 1 runs
// untraced and traced passes alternately and reports the per-layer
// breakdown. See README.md for the metric definitions and the map from each
// layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"quorumplace/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one workload's state after set-up. Operations come in passes:
// a pass runs op 0 … passLen()-1 over the seeded inputs once, so every
// pass does identical work and must produce identical outputs.
type bench interface {
	passLen() int
	// beginPass prepares a pass (untimed). traced reports whether
	// telemetry is on for it.
	beginPass(traced bool) error
	// op runs operation i of the pass; only this call is timed.
	op(i int) error
	// endOp checks operation i's outputs (untimed).
	endOp(i int) error
	// endPass checks the pass as a whole (untimed).
	endPass() error
	// passWork is the work one pass completes, in the workload's unit.
	passWork() float64
	// quality returns the deterministic quality metrics of the first pass:
	// a delay in metric distance units and the worst node load ÷ capacity.
	quality() (delay, loadFactor float64)
	// digest fingerprints the first pass's outputs.
	digest() string
	// summary returns report lines with the workload's own named metrics.
	summary() []string
	// layerExtras returns workload-specific per-layer metrics.
	layerExtras() map[string]float64
	close()
}

type workload struct {
	name string
	// tail is the percentile reported as op_ms_tail: the highest one that
	// keeps at least ten samples beyond it at the workload's usual count.
	tail     float64
	workUnit string
	setup    func(seed int64, tiny bool) (bench, error)
}

var workloads = []workload{
	{name: "plan", tail: 0.9, workUnit: "SSQPP sources", setup: setupPlan},
	{name: "simulate", tail: 0.9, workUnit: "simulated accesses", setup: setupSimulate},
	{name: "daemon", tail: 0.99, workUnit: "ingested accesses", setup: setupDaemon},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// endToEnd and perLayer name every metric the benchmark prints, with its
// unit; BENCHMARK.json lists the same names.
var (
	endToEnd = []metricName{
		{"setup_s", "s"}, {"op_ms_p50", "ms"}, {"op_ms_tail", "ms"}, {"work_per_s", "1/s"},
		{"delay", "dist"}, {"load_factor", "ratio"}, {"live_heap_mb", "MB"},
	}
	perLayer = []metricName{
		{"graph.build_metric_s", "s"},
		{"agg.add_clients_s", "s"},
		{"placement.model_build_s", "s"},
		{"placement.worker_busy_ratio", "ratio"},
		{"treedp.ssqpp_s", "s"},
		{"lp.solve_s", "s"},
		{"lp.phase1_s", "s"},
		{"lp.phase2_s", "s"},
		{"lp.pivots", "count"},
		{"lp.solves", "count"},
		{"lp.degenerate_ratio", "ratio"},
		{"gap.round_s", "s"},
		{"flow.assign_s", "s"},
		{"flow.augmentations", "count"},
		{"netsim.run_s", "s"},
		{"netsim.failures_s", "s"},
		{"netsim.queueing_s", "s"},
		{"netsim.events", "count"},
		{"netsim.retries", "count"},
		{"netsim.pdes_rounds_per_event", "ratio"},
		{"daemon.tick_self_s", "s"},
		{"heat.recent_drift_s", "s"},
		{"heat.epochs", "count"},
		{"lp.solve_hot_s", "s"},
		{"lp.warm_ratio", "ratio"},
		{"daemon.alerts", "count"},
		{"daemon.moves", "count"},
		{"daemon.tick_ms_p50", "ms"},
		{"daemon.tick_ms_p99", "ms"},
		{"daemon.observe_ms_p99", "ms"},
		{"daemon.read_ms_p99", "ms"},
		{"trace_overhead", "ms"},
	}
)

type metricName struct{ name, unit string }

// fill sets every named metric from values; a name without a value is a
// layer the workload leaves idle, reported as 0.
func (r *result) fill(names []metricName, values map[string]float64) {
	for _, m := range names {
		r.Metrics[m.name] = metric{values[m.name], m.unit}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	report    []string
	digest    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: plan, simulate or daemon")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured duration")
	trace := fs.Int("trace", 0, "1 = report the per-layer breakdown instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload plan|simulate|daemon, --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure sets the workload up setupRepeats times, then runs whole passes
// until the duration has elapsed. Untraced, it reports the end-to-end
// metrics. Traced, it alternates untraced and traced passes and reports the
// per-layer metrics of the traced ones.
func measure(w workload, seed int64, dur time.Duration, traced, tiny bool) (*result, error) {
	var b bench
	setups := make([]float64, setupRepeats)
	for k := range setups {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := w.setup(seed, tiny)
		setups[k] = time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		b = nb
	}
	defer b.close()

	res := &result{Metrics: make(map[string]metric)}
	var opMS, plainPassMS, tracedPassMS []float64
	var opTime time.Duration
	var work float64
	lt := newLayerTrace()
	n := b.passLen()
	// Whole passes run until the duration has elapsed and, when the run
	// reports the tail percentile, it has minBeyond samples beyond it.
	minOps := minSamples(w.tail)
	if traced || tiny {
		minOps = 0
	}
	deadline := time.Now().Add(dur)
	for pass := 0; pass < 2 || time.Now().Before(deadline) || len(opMS) < minOps; pass++ {
		tracedPass := traced && pass%2 == 1
		var col *obs.Collector
		if tracedPass {
			col = obs.Enable(obs.NewCollector())
		}
		var passTime time.Duration
		failed := 0
		if err := b.beginPass(tracedPass); err != nil {
			obs.Disable()
			return nil, fmt.Errorf("%s pass %d: %w", w.name, pass, err)
		}
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := b.op(i)
			d := time.Since(t0)
			if err == nil {
				err = b.endOp(i)
			}
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s pass %d op %d: %v\n", w.name, pass, i, err)
			}
			passTime += d
			if !tracedPass {
				opMS = append(opMS, ms(d))
			}
		}
		if err := b.endPass(); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %v\n", w.name, pass, err)
		}
		res.Attempted += n
		res.Failed += failed
		perOp := ms(passTime) / float64(n)
		if tracedPass {
			obs.Disable()
			lt.add(col.Snapshot(), n)
			tracedPassMS = append(tracedPassMS, perOp)
		} else {
			plainPassMS = append(plainPassMS, perOp)
			opTime += passTime
			work += b.passWork()
		}
	}
	if lt.mismatched > 0 {
		res.Failed += lt.mismatched
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d traced passes changed a deterministic counter\n", w.name, lt.mismatched)
	}
	res.Correct = res.Failed == 0

	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)

	delay, load := b.quality()
	res.digest = b.digest()
	workers := runtime.NumCPU()
	res.report = append(res.report,
		fmt.Sprintf("perfbench workload=%s seed=%d trace=%v gomaxprocs=%d nproc=%d commit=%s digest=%s",
			w.name, seed, boolInt(traced), runtime.GOMAXPROCS(0), workers, commit(), res.digest),
		fmt.Sprintf("  ops=%d (%d per pass) failed=%d error_rate=%g", res.Attempted, n, res.Failed,
			float64(res.Failed)/float64(res.Attempted)))
	res.report = append(res.report, b.summary()...)

	if traced {
		m := lt.metrics(workers)
		for k, v := range b.layerExtras() {
			m[k] = v
		}
		m["trace_overhead"] = median(tracedPassMS) - median(plainPassMS)
		res.fill(perLayer, m)
		res.report = append(res.report, fmt.Sprintf("  traced passes=%d untraced passes=%d", lt.passes, len(plainPassMS)))
		return res, nil
	}

	tail := quantile(opMS, w.tail)
	p50 := quantile(opMS, 0.5)
	e2e := map[string]float64{
		"setup_s":      median(setups),
		"op_ms_p50":    p50,
		"op_ms_tail":   tail,
		"work_per_s":   work / opTime.Seconds(),
		"delay":        delay,
		"load_factor":  load,
		"live_heap_mb": heapMB,
	}
	res.fill(endToEnd, e2e)
	res.report = append(res.report,
		fmt.Sprintf("  setup_s=%.4f (median of %d) op_ms_p50=%.4f op_ms_p%g=%.4f (n=%d, %d beyond) %s/s=%.1f",
			e2e["setup_s"], setupRepeats, p50, 100*w.tail, tail, len(opMS), beyond(len(opMS), w.tail), w.workUnit, e2e["work_per_s"]),
		fmt.Sprintf("  delay=%.6g load_factor=%.6g live_heap_mb=%.2f", delay, load, heapMB))
	if beyond(len(opMS), w.tail) < minBeyond {
		fmt.Fprintf(os.Stderr, "perfbench: %s: only %d samples beyond p%g\n", w.name, beyond(len(opMS), w.tail), 100*w.tail)
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
