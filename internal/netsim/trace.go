package netsim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Access-level tracing: every simulated quorum access can be captured as an
// AccessTrace with one ProbeSpan per contacted quorum member, recorded into
// a bounded ring buffer (a Recorder) with optional 1-in-k sampling. The
// paper's objective *is* access delay (Avg Δ_f, Avg Γ_f — Eq. 1, §5), so
// when a placement underperforms its bound the trace shows which accesses
// were slow and which member was the straggler. Recording is off unless a
// Recorder is attached to the run's config; the disabled path costs one
// nil check per access.

// ProbeSpan records one quorum-member contact within a traced access. All
// times are virtual simulation time. QueueWait and Service are nonzero only
// in the queueing simulator; the propagation-only simulators charge NetDelay
// alone.
type ProbeSpan struct {
	Member    int     `json:"member"` // logical element index in the universe
	Node      int     `json:"node"`   // hosting network node
	Dispatch  float64 `json:"dispatch"`
	QueueWait float64 `json:"queue_wait"`
	Service   float64 `json:"service"`
	NetDelay  float64 `json:"net_delay"` // propagation (round trip where modeled)
	Complete  float64 `json:"complete"`
	Straggler bool    `json:"straggler"` // determined the access latency
	Failed    bool    `json:"failed"`    // probed node was down (failure sim)
}

// AccessTrace is one traced quorum access.
type AccessTrace struct {
	ID       int64       `json:"id"`
	Run      int         `json:"run"` // recorder-assigned run index
	Client   int         `json:"client"`
	Quorum   int         `json:"quorum"` // sampled quorum index
	Mode     Mode        `json:"mode"`
	Attempts int         `json:"attempts"` // failed attempts before the outcome (failure sim)
	Aborted  bool        `json:"aborted"`  // retry budget exhausted (failure sim)
	Start    float64     `json:"start"`
	End      float64     `json:"end"`
	Latency  float64     `json:"latency"`
	Probes   []ProbeSpan `json:"probes"`
}

// TSample is one time-series snapshot of simulator gauges, taken every
// Recorder interval of virtual time.
type TSample struct {
	Run        int     `json:"run"`
	At         float64 `json:"at"`
	InFlight   int     `json:"in_flight"`             // accesses issued but not completed
	Accesses   int     `json:"accesses"`              // cumulative completed accesses
	NodeHits   []int64 `json:"node_hits"`             // cumulative per-node messages
	QueueDepth []int   `json:"queue_depth,omitempty"` // per-node FIFO depth incl. in service (queueing sim)
}

// defaultTraceCapacity bounds the ring buffer when the caller does not pick
// a capacity.
const defaultTraceCapacity = 4096

// defaultSeriesCap bounds the time-series sample buffer. Traces already
// live in a fixed ring, but the series grew one sample per interval
// boundary for as long as a run lasted — a 10⁷-access run at a fine
// interval could swamp the Perfetto export. Past the cap new samples are
// counted as dropped instead of retained, keeping exports bounded.
const defaultSeriesCap = 1 << 16

// Recorder captures per-access traces and time-series samples from
// simulation runs into a bounded ring buffer. It is safe for concurrent use
// and may be shared by several runs (each run gets its own run index).
// Attach one per run via the simulator config's Recorder field.
type Recorder struct {
	sampleEvery int // immutable; runs fold it into their sampling hash
	tsInterval  float64

	mu            sync.Mutex
	capacity      int
	ring          []AccessTrace
	next          int   // ring write cursor
	added         int64 // traces ever recorded (incl. overwritten)
	runs          int
	nextLabel     string
	labels        map[int]string
	series        []TSample
	seriesCap     int // defaultSeriesCap; tests lower it
	seriesDropped int64

	// Windowed SLO accounting (see slo.go). sloWindow ≤ 0 means off.
	sloWindow float64
	sloAccs   map[sloKey]*sloAcc
	sloNodes  map[int]int // run → network size, the load-skew denominator
}

// NewRecorder returns a Recorder holding up to capacity traces (≤ 0 means
// the default 4096), recording a deterministic 1-in-sampleEvery sample of
// the accesses, keyed by (seed, client, access) (≤ 1 means every access),
// and snapshotting time-series gauges every tsInterval units of virtual
// time (≤ 0 disables the time series).
func NewRecorder(capacity, sampleEvery int, tsInterval float64) *Recorder {
	if capacity <= 0 {
		capacity = defaultTraceCapacity
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if tsInterval < 0 {
		tsInterval = 0
	}
	return &Recorder{
		sampleEvery: sampleEvery,
		tsInterval:  tsInterval,
		capacity:    capacity,
		seriesCap:   defaultSeriesCap,
		labels:      make(map[int]string),
	}
}

// SeriesDropped returns how many time-series samples the cap discarded.
func (r *Recorder) SeriesDropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesDropped
}

// Trace-sampling presets for -trace-sample flags: named rates for the two
// regimes operators actually pick — "fine" keeps enough per-access detail
// to diagnose a placement (1 in 16), "coarse" keeps Perfetto exports of
// multi-million-access parallel runs small (1 in 1024).
const (
	TraceSampleFine   = 16
	TraceSampleCoarse = 1024
)

// ParseTraceSample parses a -trace-sample flag value: a positive integer
// k (trace a deterministic 1-in-k sample of the accesses; 1 = all) or a
// preset name, "fine" (1 in 16) or "coarse" (1 in 1024).
func ParseTraceSample(s string) (int, error) {
	switch s {
	case "fine":
		return TraceSampleFine, nil
	case "coarse":
		return TraceSampleCoarse, nil
	}
	var k int
	if _, err := fmt.Sscanf(s, "%d", &k); err != nil || k < 1 {
		return 0, fmt.Errorf("netsim: trace sample %q is neither a positive integer nor a preset (fine, coarse)", s)
	}
	return k, nil
}

// NextRunLabel sets the human-readable label attached to the next run that
// begins on this recorder (e.g. the quorum-system name), used by the Chrome
// trace export to name process tracks.
func (r *Recorder) NextRunLabel(label string) {
	r.mu.Lock()
	r.nextLabel = label
	r.mu.Unlock()
}

// beginRun assigns a run index to a simulation run.
func (r *Recorder) beginRun() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.runs
	r.runs++
	if r.nextLabel != "" {
		r.labels[id] = r.nextLabel
		r.nextLabel = ""
	}
	return id
}

// add records a completed trace into the ring, assigning its ID. When the
// ring is full the new trace overwrites the oldest, whose probes become
// garbage, so the ring's memory stays bounded by its capacity.
func (r *Recorder) add(tr AccessTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr.ID = r.added
	r.added++
	if len(r.ring) < r.capacity {
		r.ring = append(r.ring, tr)
		r.next = len(r.ring) % r.capacity
		return
	}
	r.ring[r.next] = tr
	r.next = (r.next + 1) % r.capacity
}

// addSample appends one time-series sample, or counts it as dropped once
// the series cap is reached.
func (r *Recorder) addSample(s TSample) {
	r.mu.Lock()
	if len(r.series) >= r.seriesCap {
		r.seriesDropped++
	} else {
		r.series = append(r.series, s)
	}
	r.mu.Unlock()
}

// Traces returns the retained traces, oldest first. Probe slices are deep
// copies, so callers may modify them without touching the ring.
func (r *Recorder) Traces() []AccessTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]AccessTrace, 0, len(r.ring))
	if len(r.ring) < r.capacity {
		out = append(out, r.ring...)
	} else {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	}
	for i := range out {
		out[i].Probes = append([]ProbeSpan(nil), out[i].Probes...)
	}
	return out
}

// Series returns a copy of the recorded time-series samples in order.
func (r *Recorder) Series() []TSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TSample(nil), r.series...)
}

// Recorded returns how many traces were ever recorded, including those the
// ring has since overwritten.
func (r *Recorder) Recorded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.added
}

// Dropped returns how many recorded traces the bounded ring overwrote.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.added <= int64(r.capacity) {
		return 0
	}
	return r.added - int64(r.capacity)
}

// runLabel returns the label of run id, if any.
func (r *Recorder) runLabel(id int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.labels[id]
}

// --- straggler marking --------------------------------------------------------

// markStraggler flags the probe that determined the access latency: the
// latest completion under the max-delay model, the longest individual delay
// under the total-delay model. Failed probes never count, and the failure
// simulator passes only the final successful attempt's probes.
func markStraggler(mode Mode, probes []ProbeSpan) {
	best := -1
	var bestVal float64
	for i := range probes {
		p := &probes[i]
		if p.Failed {
			continue
		}
		v := p.Complete
		if mode == Sequential {
			v = p.Complete - p.Dispatch
		}
		if best < 0 || v > bestVal {
			best, bestVal = i, v
		}
	}
	if best >= 0 {
		probes[best].Straggler = true
	}
}

// --- time-series sampling ----------------------------------------------------

// tsState drives interval sampling for one shard of a run: fill is called
// for every interval boundary crossed before the next event is processed.
// Every shard walks the identical boundary sequence, so the buffered
// samples merge boundary-by-boundary after the run (mergeSamples).
type tsState struct {
	run      int
	interval float64
	next     float64
	samples  []TSample
	// completion-time min-heap of in-flight accesses (propagation sims,
	// where completion is not itself an event).
	done fheap
}

func newTSState(rec *Recorder, run int) *tsState {
	if rec == nil || rec.tsInterval <= 0 {
		return nil
	}
	return &tsState{run: run, interval: rec.tsInterval, next: rec.tsInterval}
}

// advance buffers samples for every boundary ≤ now; fill populates the
// per-simulator gauges of the sample (queue depths, in-flight count).
func (t *tsState) advance(now float64, fill func(at float64, s *TSample)) {
	for t.next <= now {
		s := TSample{Run: t.run, At: t.next}
		fill(t.next, &s)
		t.samples = append(t.samples, s)
		t.next += t.interval
	}
}

// fheap is a plain float64 min-heap (completion times).
type fheap []float64

func (h *fheap) push(x float64) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p] <= (*h)[i] {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *fheap) popTo(limit float64) {
	for len(*h) > 0 && (*h)[0] <= limit {
		n := len(*h) - 1
		(*h)[0] = (*h)[n]
		*h = (*h)[:n]
		i := 0
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && (*h)[l] < (*h)[m] {
				m = l
			}
			if r < n && (*h)[r] < (*h)[m] {
				m = r
			}
			if m == i {
				break
			}
			(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
			i = m
		}
	}
}

// --- plain-text breakdown -----------------------------------------------------

// Breakdown renders a per-node and per-quorum latency-percentile table over
// the retained traces: per node, the distribution of probe durations
// (dispatch→complete) plus how often the node was the straggler; per
// quorum, the distribution of access latencies.
func (r *Recorder) Breakdown() string {
	traces := r.Traces()
	var b strings.Builder
	fmt.Fprintf(&b, "trace breakdown (%d traces retained, %d recorded, %d dropped)\n",
		len(traces), r.Recorded(), r.Dropped())
	if len(traces) == 0 {
		return b.String()
	}

	nodeDur := map[int][]float64{}
	nodeStrag := map[int]int{}
	nodeWait := map[int]float64{}
	quorumLat := map[int][]float64{}
	for _, tr := range traces {
		quorumLat[tr.Quorum] = append(quorumLat[tr.Quorum], tr.Latency)
		for _, p := range tr.Probes {
			if p.Failed {
				continue
			}
			nodeDur[p.Node] = append(nodeDur[p.Node], p.Complete-p.Dispatch)
			nodeWait[p.Node] += p.QueueWait
			if p.Straggler {
				nodeStrag[p.Node]++
			}
		}
	}

	b.WriteString("per-node probe latency:\n")
	fmt.Fprintf(&b, "  %-6s %7s %9s %9s %9s %9s %9s %10s\n",
		"node", "probes", "p50", "p95", "p99", "max", "avg wait", "straggler")
	for _, v := range sortedIntKeys(nodeDur) {
		d := nodeDur[v]
		sort.Float64s(d)
		avgWait := nodeWait[v] / float64(len(d))
		fmt.Fprintf(&b, "  %-6d %7d %9.4f %9.4f %9.4f %9.4f %9.4f %9.1f%%\n",
			v, len(d), quantileSorted(d, 0.5), quantileSorted(d, 0.95),
			quantileSorted(d, 0.99), d[len(d)-1], avgWait,
			100*float64(nodeStrag[v])/float64(len(d)))
	}

	b.WriteString("per-quorum access latency:\n")
	fmt.Fprintf(&b, "  %-6s %8s %9s %9s %9s %9s\n", "quorum", "accesses", "p50", "p95", "p99", "max")
	for _, q := range sortedIntKeys(quorumLat) {
		d := quorumLat[q]
		sort.Float64s(d)
		fmt.Fprintf(&b, "  %-6d %8d %9.4f %9.4f %9.4f %9.4f\n",
			q, len(d), quantileSorted(d, 0.5), quantileSorted(d, 0.95),
			quantileSorted(d, 0.99), d[len(d)-1])
	}
	return b.String()
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// quantileSorted interpolates the q-quantile (0 ≤ q ≤ 1) of an
// ascending-sorted sample with the R-7 estimator; 0 for an empty sample.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
