// Package obs is a stdlib-only telemetry layer for the solver pipeline:
// hierarchical wall-clock spans, counters, gauges and histograms, collected
// per run by an in-memory Collector and rendered as JSONL traces or a
// human-readable summary table.
//
// The package-level default is "off": every instrumentation call first does
// a single atomic load of the active collector and returns immediately when
// none is installed, so instrumented hot paths cost roughly one predictable
// branch when telemetry is disabled (verified by BenchmarkDisabled*).
//
// Spans nest without a context parameter: the collector keeps a stack of
// open spans, and obs.Start parents the new span to the innermost open one.
//
//	sp := obs.Start("placement.ssqpp")
//	defer sp.End()
//	obs.Count("lp.pivots", 12)
//
// The stack makes parent/child attribution exact for sequential code, which
// is how the solver pipeline runs by default. Concurrent sections must not
// share the stack: a goroutine that holds a parent span handle parents its
// spans explicitly with Span.StartChild (or Collector.StartWithParent),
// which bypasses the stack entirely, and hot concurrent recorders use a
// per-goroutine Shard that buffers spans and metrics lock-free and merges
// into the collector exactly once at the end (see shard.go). The parallel
// QPP solver records through one Shard per worker.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span. Start is the offset from the collector's
// creation time, so records order and nest without absolute timestamps.
type SpanRecord struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"` // 0 = root
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// Span is a live span handle returned by Start. A nil *Span is valid and
// inert, which is what the package functions return while telemetry is
// disabled — callers never need to check.
type Span struct {
	c       *Collector
	sh      *Shard // non-nil when the span records into a worker shard
	id      uint64
	parent  uint64
	name    string
	start   time.Time
	onStack bool // true when Start pushed the span on the collector stack
	ended   atomic.Bool
}

// End completes the span and records it. It is safe on a nil span and
// idempotent on double End (the first call wins).
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	d := time.Since(s.start)
	if s.sh != nil {
		s.sh.endSpan(s, d)
		return
	}
	s.c.endSpan(s, d)
}

// StartChild opens a span explicitly parented to s, without consulting or
// touching the collector's open-span stack. This is the concurrency-safe
// way to attribute spans: a goroutine that received s from its spawner
// parents its work under s regardless of what other goroutines have open.
// Safe on a nil span (returns an inert nil span).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	if s.sh != nil {
		return s.sh.startChild(name, s.id)
	}
	return s.c.StartWithParent(name, s.id)
}

// Sink receives completed spans as they end; see JSONLWriter for the
// streaming trace sink. Sinks are invoked under the collector lock, so
// implementations must not call back into the collector.
type Sink interface {
	SpanEnd(SpanRecord)
}

// counterCell is one counter's accumulator. Cells live in an immutable
// name→cell map behind an atomic pointer, so the Count hot path is two
// atomic loads, a map lookup and an atomic add — no collector mutex, and
// therefore no cross-worker serialization when telemetry is on. The solver
// call sites batch high-frequency events (pivots, augmentations) into one
// Count per solve, so per-cell cache-line traffic stays negligible.
type counterCell struct{ v atomic.Int64 }

// Collector accumulates spans and metrics for one run. It is safe for
// concurrent use. The zero value is not usable; create with NewCollector.
type Collector struct {
	epoch time.Time

	// nextID is outside the mutex so StartWithParent and Shard.Merge can
	// allocate span IDs without serializing on recording.
	nextID atomic.Uint64

	mu     sync.Mutex
	stack  []uint64 // open spans, innermost last
	spans  []SpanRecord
	gauges map[string]float64
	hists  map[string]*LogHist
	sinks  []Sink

	// counters is read lock-free; counterMu serializes only the
	// clone-and-swap that registers a new counter name.
	counterMu sync.Mutex
	counters  atomic.Pointer[map[string]*counterCell]
}

// NewCollector returns an empty collector whose span clock starts now.
func NewCollector() *Collector {
	c := &Collector{
		epoch:  time.Now(),
		gauges: make(map[string]float64),
		hists:  make(map[string]*LogHist),
	}
	empty := make(map[string]*counterCell)
	c.counters.Store(&empty)
	return c
}

// AddSink attaches a streaming sink that observes every span as it ends.
func (c *Collector) AddSink(s Sink) {
	c.mu.Lock()
	c.sinks = append(c.sinks, s)
	c.mu.Unlock()
}

// Start opens a span as a child of the innermost open span (a root span if
// none is open).
func (c *Collector) Start(name string) *Span {
	now := time.Now()
	id := c.nextID.Add(1)
	c.mu.Lock()
	var parent uint64
	if n := len(c.stack); n > 0 {
		parent = c.stack[n-1]
	}
	c.stack = append(c.stack, id)
	c.mu.Unlock()
	return &Span{c: c, id: id, parent: parent, name: name, start: now, onStack: true}
}

// StartWithParent opens a span with an explicit parent span ID (0 for a
// root span), without reading or pushing the open-span stack. Concurrent
// code uses it (usually via Span.StartChild) so span attribution never
// depends on which goroutine happens to have a span open.
func (c *Collector) StartWithParent(name string, parent uint64) *Span {
	return &Span{c: c, id: c.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

func (c *Collector) endSpan(s *Span, dur time.Duration) {
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.Sub(c.epoch),
		Dur:    dur,
	}
	c.mu.Lock()
	if s.onStack {
		// Remove this span from the open stack; out-of-order ends (possible
		// under concurrency) remove the right entry rather than the top.
		for i := len(c.stack) - 1; i >= 0; i-- {
			if c.stack[i] == s.id {
				c.stack = append(c.stack[:i], c.stack[i+1:]...)
				break
			}
		}
	}
	c.spans = append(c.spans, rec)
	for _, snk := range c.sinks {
		snk.SpanEnd(rec)
	}
	c.mu.Unlock()
}

// Count adds delta to a monotonic counter. Existing counters are bumped
// lock-free; only the first use of a new name takes a (registration) lock.
func (c *Collector) Count(name string, delta int64) {
	if cell, ok := (*c.counters.Load())[name]; ok {
		cell.v.Add(delta)
		return
	}
	c.counterMu.Lock()
	old := *c.counters.Load()
	cell, ok := old[name]
	if !ok {
		next := make(map[string]*counterCell, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		cell = &counterCell{}
		next[name] = cell
		c.counters.Store(&next)
	}
	c.counterMu.Unlock()
	cell.v.Add(delta)
}

// Gauge sets a gauge to its most recent value.
func (c *Collector) Gauge(name string, v float64) {
	c.mu.Lock()
	c.gauges[name] = v
	c.mu.Unlock()
}

// GaugeMax raises a gauge to v if v exceeds its current value (watermark
// semantics, e.g. netsim.max_queue_depth).
func (c *Collector) GaugeMax(name string, v float64) {
	c.mu.Lock()
	if cur, ok := c.gauges[name]; !ok || v > cur {
		c.gauges[name] = v
	}
	c.mu.Unlock()
}

// Observe records one sample into a histogram.
func (c *Collector) Observe(name string, v float64) {
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = NewLogHist()
		c.hists[name] = h
	}
	h.Observe(v)
	c.mu.Unlock()
}

// MergeHist folds a privately accumulated histogram into the named
// collector histogram in one locked, bucket-exact merge. Workers that
// observe in tight loops record into their own LogHist (or a Shard) and
// merge once, instead of taking the collector mutex per sample.
func (c *Collector) MergeHist(name string, h *LogHist) {
	if h == nil || h.count == 0 {
		return
	}
	c.mu.Lock()
	dst := c.hists[name]
	if dst == nil {
		dst = NewLogHist()
		c.hists[name] = dst
	}
	dst.Merge(h)
	c.mu.Unlock()
}

// Reset drops all recorded spans and metrics (open spans stay open and will
// record into the fresh state when ended).
func (c *Collector) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.gauges = make(map[string]float64)
	c.hists = make(map[string]*LogHist)
	c.mu.Unlock()
	c.counterMu.Lock()
	empty := make(map[string]*counterCell)
	c.counters.Store(&empty)
	c.counterMu.Unlock()
}

// HistStats is the snapshot form of a histogram. Count, Sum, Min and Max
// are exact; quantiles come from the log-linear buckets and are within a
// relative 1/(2·histSubBuckets) of the true order statistic (see LogHist).
type HistStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot is a consistent copy of a collector's state.
type Snapshot struct {
	Duration   time.Duration // collector age at snapshot time
	Spans      []SpanRecord
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistStats
}

// Snapshot returns a consistent copy of everything recorded so far.
// Counter values are read with per-counter atomicity: a Count racing the
// snapshot is either fully included or fully excluded, but two different
// counters are not guaranteed to be cut at the same instant.
func (c *Collector) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	cmap := *c.counters.Load()
	snap := &Snapshot{
		Duration:   time.Since(c.epoch),
		Spans:      append([]SpanRecord(nil), c.spans...),
		Counters:   make(map[string]int64, len(cmap)),
		Gauges:     make(map[string]float64, len(c.gauges)),
		Histograms: make(map[string]HistStats, len(c.hists)),
	}
	for k, cell := range cmap {
		snap.Counters[k] = cell.v.Load()
	}
	for k, v := range c.gauges {
		snap.Gauges[k] = v
	}
	for k, h := range c.hists {
		snap.Histograms[k] = h.stats()
	}
	return snap
}

// --- package-level switch ----------------------------------------------------

// active is the installed collector; nil means telemetry is off. Every
// package-level instrumentation function performs exactly one atomic load of
// this pointer before doing any work.
var active atomic.Pointer[Collector]

// Enable installs c (or a fresh collector when c is nil) as the destination
// of all package-level instrumentation calls, returning it.
func Enable(c *Collector) *Collector {
	if c == nil {
		c = NewCollector()
	}
	active.Store(c)
	return c
}

// Disable turns package-level telemetry off and returns the collector that
// was active, if any.
func Disable() *Collector {
	return active.Swap(nil)
}

// Active returns the installed collector, or nil when telemetry is off.
func Active() *Collector { return active.Load() }

// Enabled reports whether a collector is installed.
func Enabled() bool { return active.Load() != nil }

// Start opens a span on the active collector; it returns an inert nil span
// when telemetry is off.
func Start(name string) *Span {
	c := active.Load()
	if c == nil {
		return nil
	}
	return c.Start(name)
}

// Count adds delta to a counter on the active collector.
func Count(name string, delta int64) {
	if c := active.Load(); c != nil {
		c.Count(name, delta)
	}
}

// Gauge sets a gauge on the active collector.
func Gauge(name string, v float64) {
	if c := active.Load(); c != nil {
		c.Gauge(name, v)
	}
}

// GaugeMax raises a watermark gauge on the active collector.
func GaugeMax(name string, v float64) {
	if c := active.Load(); c != nil {
		c.GaugeMax(name, v)
	}
}

// Observe records a histogram sample on the active collector.
func Observe(name string, v float64) {
	if c := active.Load(); c != nil {
		c.Observe(name, v)
	}
}

// Counter reads a counter from a snapshot, 0 when absent. It exists so
// benchmarks and tests read metrics without map-presence boilerplate.
func (s *Snapshot) Counter(name string) int64 { return s.Counters[name] }

// SpanTree returns the snapshot's spans grouped by parent ID, for callers
// that want to walk the hierarchy directly.
func (s *Snapshot) SpanTree() map[uint64][]SpanRecord {
	tree := make(map[uint64][]SpanRecord)
	for _, r := range s.Spans {
		tree[r.Parent] = append(tree[r.Parent], r)
	}
	return tree
}

// SpanPaths returns the slash-joined name path of every span (e.g.
// "placement.qpp/placement.ssqpp/lp.solve"), useful for asserting that a
// trace covers specific nested phases.
func (s *Snapshot) SpanPaths() []string {
	byID := make(map[uint64]SpanRecord, len(s.Spans))
	for _, r := range s.Spans {
		byID[r.ID] = r
	}
	paths := make([]string, 0, len(s.Spans))
	for _, r := range s.Spans {
		paths = append(paths, spanPath(byID, r))
	}
	return paths
}

func spanPath(byID map[uint64]SpanRecord, r SpanRecord) string {
	path := r.Name
	for r.Parent != 0 {
		p, ok := byID[r.Parent]
		if !ok {
			// Parent still open at snapshot time; mark the gap explicitly.
			return fmt.Sprintf("…/%s", path)
		}
		path = p.Name + "/" + path
		r = p
	}
	return path
}
