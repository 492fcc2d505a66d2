package main

import (
	"time"

	"quorumplace/internal/obs"
)

// The traced run attributes time to layers by span name alone. Parent links
// in a trace are not trustworthy across goroutines: the exact tree DP opens
// its spans on the process-wide collector stack while parallel QPP workers
// record through per-worker shards, so those spans nest under one another
// instead of under their worker. A layer's self time is therefore computed
// from per-name sums: the summed duration of every span with that name,
// minus the summed duration of the span names declared as its children in
// spanChildren — names that, wherever they occur, occur inside it.
var spanChildren = map[string][]string{
	"lp.solve":    {"lp.phase1", "lp.phase2"},
	"gap.round":   {"flow.assign"},
	"daemon.tick": {"lp.solve", "lp.solve_hot", "gap.round"},
}

// spanTotals sums span durations by name.
func spanTotals(spans []obs.SpanRecord) map[string]time.Duration {
	tot := make(map[string]time.Duration)
	for _, s := range spans {
		tot[s.Name] += s.Dur
	}
	return tot
}

// selfTime is the summed duration of the named spans minus that of their
// declared children; 0 when no span of that name ran.
func selfTime(tot map[string]time.Duration, children map[string][]string, name string) time.Duration {
	d, ok := tot[name]
	if !ok {
		return 0
	}
	for _, c := range children[name] {
		d -= tot[c]
	}
	return d
}

// layerTrace accumulates the per-name span totals and counters of the
// traced passes of one run.
type layerTrace struct {
	passes int
	ops    int
	totals map[string]time.Duration
	// counters of the first traced pass; later passes must repeat them.
	counters map[string]int64
	// mismatched counts traced passes whose counters differ from the first.
	mismatched int
}

func newLayerTrace() *layerTrace {
	return &layerTrace{totals: make(map[string]time.Duration)}
}

// add folds one traced pass of ops operations.
func (lt *layerTrace) add(snap *obs.Snapshot, ops int) {
	for name, d := range spanTotals(snap.Spans) {
		lt.totals[name] += d
	}
	counts := make(map[string]int64, len(countedLayers))
	for _, name := range countedLayers {
		counts[name] = snap.Counter(name)
	}
	if lt.passes == 0 {
		lt.counters = counts
	} else {
		for name, v := range counts {
			if lt.counters[name] != v {
				lt.mismatched++
				break
			}
		}
	}
	lt.passes++
	lt.ops += ops
}

// countedLayers are the program counters reported per pass. Each repeats
// exactly across passes and runs of one seed.
var countedLayers = []string{
	"lp.pivots", "lp.solves", "lp.degenerate_pivots",
	"flow.augmentations",
	"netsim.events", "netsim.retries", "netsim.pdes_rounds",
	"daemon.ticks", "daemon.alerts", "daemon.moves", "daemon.warm_ticks", "daemon.cold_ticks",
}

// perOp is the self time of the named spans per operation, in seconds.
func (lt *layerTrace) perOp(name string) float64 {
	if lt.ops == 0 {
		return 0
	}
	return selfTime(lt.totals, spanChildren, name).Seconds() / float64(lt.ops)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics assembles every per-layer metric. A layer the workload leaves
// idle reports 0.
func (lt *layerTrace) metrics(workers int) map[string]float64 {
	c := lt.counters
	m := map[string]float64{
		"graph.build_metric_s":    lt.perOp("graph.build_metric"),
		"agg.add_clients_s":       lt.perOp("agg.add_clients"),
		"placement.model_build_s": lt.perOp("ssqpp.model_build"),
		"placement.worker_busy_ratio": ratio(lt.totals["placement.qpp_worker"].Seconds(),
			float64(workers)*lt.totals["placement.qpp_parallel"].Seconds()),
		"treedp.ssqpp_s":      lt.perOp("treedp.ssqpp"),
		"lp.solve_s":          lt.perOp("lp.solve"),
		"lp.phase1_s":         lt.perOp("lp.phase1"),
		"lp.phase2_s":         lt.perOp("lp.phase2"),
		"lp.pivots":           float64(c["lp.pivots"]),
		"lp.solves":           float64(c["lp.solves"]),
		"lp.degenerate_ratio": ratio(float64(c["lp.degenerate_pivots"]), float64(c["lp.pivots"])),
		"gap.round_s":         lt.perOp("gap.round"),
		"flow.assign_s":       lt.perOp("flow.assign"),
		"flow.augmentations":  float64(c["flow.augmentations"]),
		"netsim.run_s":        lt.perOp("netsim.run"),
		"netsim.failures_s":   lt.perOp("netsim.failures"),
		"netsim.queueing_s":   lt.perOp("netsim.queueing"),
		"netsim.events":       float64(c["netsim.events"]),
		"netsim.retries":      float64(c["netsim.retries"]),
		"daemon.tick_self_s":  lt.perOp("daemon.tick"),
		"heat.recent_drift_s": lt.perOp("heat.recent_drift"),
		"lp.solve_hot_s":      lt.perOp("lp.solve_hot"),
		"lp.warm_ratio":       ratio(float64(c["daemon.warm_ticks"]), float64(c["daemon.warm_ticks"]+c["daemon.cold_ticks"])),
		"daemon.alerts":       float64(c["daemon.alerts"]),
		"daemon.moves":        float64(c["daemon.moves"]),
	}
	return m
}
