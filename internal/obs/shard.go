package obs

import (
	"time"
)

// A Shard is a single-goroutine telemetry buffer: spans, counters, gauges
// and histograms recorded into a Shard touch no locks and no shared state
// until Merge folds them into the parent Collector in one batch. Worker
// pools (the parallel QPP solver, future sharded netsim) give each worker
// its own Shard so recording is contention-free on the hot path, then merge
// the shards in worker order after the fan-in barrier, which makes the
// merged result deterministic:
//
//	sp := obs.Start("parallel_phase")
//	shards := make([]*obs.Shard, workers)
//	for w := range shards { shards[w] = obs.NewShard(sp) }
//	... workers record via shards[w].Start / .Count / .Observe ...
//	for _, sh := range shards { sh.Merge() } // after wg.Wait
//	sp.End()
//
// Merge remaps shard-local span IDs into a freshly reserved block of
// collector IDs and re-parents shard-root spans under the shard's parent
// span, so the merged span tree is exactly what a sequential run under that
// parent would have produced. Counter, gauge and histogram merges are
// bucket-exact (see LogHist).
//
// A Shard is NOT safe for concurrent use — that is the point: exactly one
// goroutine owns it between NewShard and Merge. All methods are safe on a
// nil *Shard (NewShard returns nil when telemetry is off) and inert after
// Merge, so instrumented code never branches on the telemetry state.
type Shard struct {
	c      *Collector
	parent uint64 // collector span ID adopting shard-root spans; 0 = root
	nextID uint64 // shard-local span IDs handed out so far
	stack  []uint64
	spans  []SpanRecord

	counters map[string]int64
	gauges   map[string]float64
	gaugeMax map[string]float64
	hists    map[string]*LogHist
}

// NewShard returns a telemetry buffer whose spans will be re-parented under
// parent when merged (parent must be a collector span, e.g. the span the
// spawning goroutine has open; nil parents shard roots at the top level).
// Returns nil when telemetry is off — a nil Shard accepts and drops all
// recording calls.
func NewShard(parent *Span) *Shard {
	var c *Collector
	var pid uint64
	if parent != nil && parent.sh == nil {
		c = parent.c
		pid = parent.id
	} else {
		c = active.Load()
	}
	if c == nil {
		return nil
	}
	return &Shard{
		c:        c,
		parent:   pid,
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		gaugeMax: make(map[string]float64),
		hists:    make(map[string]*LogHist),
	}
}

// Rec returns a recorder routing through the shard. Safe on a nil shard:
// the zero Rec routes to the package-level (ambient) instrumentation.
func (sh *Shard) Rec() Rec {
	return Rec{sh: sh}
}

// Start opens a span as a child of the shard's innermost open span (a
// shard-root span when none is open), using the shard's private stack —
// exact nesting without locks, because one goroutine owns the shard.
func (sh *Shard) Start(name string) *Span {
	if sh == nil || sh.c == nil {
		return nil
	}
	now := time.Now()
	sh.nextID++
	id := sh.nextID
	var parent uint64
	if n := len(sh.stack); n > 0 {
		parent = sh.stack[n-1]
	}
	sh.stack = append(sh.stack, id)
	return &Span{sh: sh, c: sh.c, id: id, parent: parent, name: name, start: now, onStack: true}
}

// startChild backs Span.StartChild for shard-owned spans.
func (sh *Shard) startChild(name string, parent uint64) *Span {
	if sh == nil || sh.c == nil {
		return nil
	}
	sh.nextID++
	return &Span{sh: sh, c: sh.c, id: sh.nextID, parent: parent, name: name, start: time.Now()}
}

func (sh *Shard) endSpan(s *Span, dur time.Duration) {
	if sh.c == nil { // shard already merged; drop stragglers
		return
	}
	if s.onStack {
		for i := len(sh.stack) - 1; i >= 0; i-- {
			if sh.stack[i] == s.id {
				sh.stack = append(sh.stack[:i], sh.stack[i+1:]...)
				break
			}
		}
	}
	sh.spans = append(sh.spans, SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.Sub(sh.c.epoch),
		Dur:    dur,
	})
}

// Count adds delta to a shard-local counter.
func (sh *Shard) Count(name string, delta int64) {
	if sh == nil || sh.c == nil {
		return
	}
	sh.counters[name] += delta
}

// Gauge sets a shard-local gauge (last write wins; at merge time shards
// merged later overwrite, so callers merging in worker order get the last
// worker's value — deterministically).
func (sh *Shard) Gauge(name string, v float64) {
	if sh == nil || sh.c == nil {
		return
	}
	sh.gauges[name] = v
}

// GaugeMax raises a shard-local watermark gauge.
func (sh *Shard) GaugeMax(name string, v float64) {
	if sh == nil || sh.c == nil {
		return
	}
	if cur, ok := sh.gaugeMax[name]; !ok || v > cur {
		sh.gaugeMax[name] = v
	}
}

// Observe records a sample into a shard-local histogram.
func (sh *Shard) Observe(name string, v float64) {
	if sh == nil || sh.c == nil {
		return
	}
	h := sh.hists[name]
	if h == nil {
		h = NewLogHist()
		sh.hists[name] = h
	}
	h.Observe(v)
}

// Merge folds everything the shard recorded into its collector and leaves
// the shard inert (further recording is dropped, a second Merge is a
// no-op). Span IDs are remapped into a block reserved off the collector's
// ID allocator; shard-root spans adopt the shard's parent span. Metric
// names are folded in sorted order so repeated runs register counters in a
// stable order. Merge must be called from one goroutine after the shard's
// owner is done (typically after the worker-pool Wait), and callers merge
// their shards in worker order to keep the combined trace deterministic.
func (sh *Shard) Merge() {
	if sh == nil || sh.c == nil {
		return
	}
	c := sh.c
	if n := sh.nextID; n > 0 {
		base := c.nextID.Add(n) - n
		c.mu.Lock()
		for _, r := range sh.spans {
			r.ID += base
			if r.Parent == 0 {
				r.Parent = sh.parent
			} else {
				r.Parent += base
			}
			c.spans = append(c.spans, r)
			for _, snk := range c.sinks {
				snk.SpanEnd(r)
			}
		}
		c.mu.Unlock()
	}
	for _, name := range sortedKeys(sh.counters) {
		c.Count(name, sh.counters[name])
	}
	for _, name := range sortedKeys(sh.gauges) {
		c.Gauge(name, sh.gauges[name])
	}
	for _, name := range sortedKeys(sh.gaugeMax) {
		c.GaugeMax(name, sh.gaugeMax[name])
	}
	for _, name := range sortedKeys(sh.hists) {
		c.MergeHist(name, sh.hists[name])
	}
	*sh = Shard{} // inert: every method checks sh.c
}

// Rec routes instrumentation either through a Shard or through the ambient
// package-level collector. The zero Rec is valid and means "ambient": code
// that takes a Rec parameter works unchanged when called from sequential
// paths (pass Rec{}) and records contention-free when called from a worker
// that owns a shard (pass shard.Rec()). Rec is a value type with no
// indirection on the disabled path, so threading it through workspaces
// costs nothing when telemetry is off.
type Rec struct{ sh *Shard }

// Start opens a span via the shard, or via the ambient collector stack.
func (r Rec) Start(name string) *Span {
	if r.sh != nil {
		return r.sh.Start(name)
	}
	return Start(name)
}

// Count adds delta to a counter.
func (r Rec) Count(name string, delta int64) {
	if r.sh != nil {
		r.sh.Count(name, delta)
		return
	}
	Count(name, delta)
}

// Observe records a histogram sample.
func (r Rec) Observe(name string, v float64) {
	if r.sh != nil {
		r.sh.Observe(name, v)
		return
	}
	Observe(name, v)
}
