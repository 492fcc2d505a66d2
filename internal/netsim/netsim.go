// Package netsim provides a discrete-event simulator for quorum accesses
// over a network, standing in for the wide-area deployments that motivate
// the paper (§1). Clients issue quorum accesses according to an access
// strategy; each access sends one message to every element of the sampled
// quorum, with message latency equal to the shortest-path distance of the
// hosting node. Two access modes mirror the paper's two cost models:
//
//   - Parallel: all messages are sent at once and the access completes when
//     the last one arrives — the max-delay cost δ_f(v, Q) (Eq. 1);
//   - Sequential: elements are contacted one after another and the access
//     completes after the summed latencies — the total-delay cost γ_f(v, Q).
//
// The simulator records per-access completion latencies and per-node hit
// counts, allowing empirical estimates of Avg Δ_f, Avg Γ_f, and load_f(v)
// that the tests compare against the analytic evaluators in
// internal/placement.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"quorumplace/internal/heat"
	"quorumplace/internal/placement"
)

// Mode selects the access cost model.
type Mode int

// Access modes.
const (
	Parallel   Mode = iota // max-delay (Eq. 1)
	Sequential             // total-delay (§5)
)

func (m Mode) String() string {
	switch m {
	case Parallel:
		return "parallel"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes a simulation run.
type Config struct {
	Instance  *placement.Instance
	Placement placement.Placement
	Mode      Mode
	// AccessesPerClient is the number of quorum accesses each client
	// issues. Clients are all nodes of the network (the paper's model);
	// set Instance.Rates to weight them — each client then issues its
	// rate-proportional share of the n·AccessesPerClient total, so an
	// aggregated demand population shapes the simulated access mix the
	// same way it shapes the analytic objective.
	AccessesPerClient int
	// InterAccessTime is the mean of the exponential think time between a
	// client's accesses (virtual time units). Zero means back-to-back.
	InterAccessTime float64
	Seed            int64
	// Recorder, when non-nil, captures per-access traces and time-series
	// samples for this run; nil turns tracing off at one nil check per
	// access.
	Recorder *Recorder
	// Heat, when non-nil, folds every access into the workload sketch
	// (per-client issue counts and per-node message hits, keyed by the
	// virtual-time epoch of the access's issue); nil turns observation off
	// at one nil check per access.
	Heat *heat.Sketch
	// Workers is the number of worker shards the clients are partitioned
	// over (engine.go); 0 runs one worker, like 1. Results merge in
	// canonical order, so for a fixed Seed every value produces
	// bitwise-identical Stats, traces, SLO windows, time-series samples
	// and heat sketches. Negative values are an error.
	Workers int
}

// Stats is the outcome of a simulation run.
type Stats struct {
	Mode          Mode
	Accesses      int
	AvgLatency    float64   // mean access completion latency
	PerClient     []float64 // mean latency per client
	NodeHits      []int64   // messages received per node
	EmpiricalLoad []float64 // NodeHits normalized by total accesses
	Clock         float64   // virtual time at which the last access completed
	latencies     []float64 // raw access latencies, for quantiles
	sorted        []float64 // lazily cached ascending copy of latencies
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of the access latency
// distribution, e.g. Percentile(0.99) for the p99, interpolating linearly
// between order statistics (the R-7 estimator): the quantile position
// q·(n-1) falls between two sorted samples and the result blends them by
// the fractional part. It panics if q is outside [0, 1]; it returns 0 when
// no accesses were recorded.
func (s *Stats) Percentile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("netsim: quantile %v outside [0,1]", q))
	}
	return quantileSorted(s.sortedLatencies(), q)
}

// sortedLatencies returns an ascending copy of the latency samples, sorted
// once and cached: summary paths (the quorumstat table calls Percentile four
// times per system) reuse the same sorted slice instead of re-sorting per
// call. The cache refreshes if samples were appended since it was built.
func (s *Stats) sortedLatencies() []float64 {
	if len(s.sorted) != len(s.latencies) {
		s.sorted = append(s.sorted[:0], s.latencies...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Latencies returns a copy of the raw per-access latency samples.
func (s *Stats) Latencies() []float64 {
	return append([]float64(nil), s.latencies...)
}

// clientAccessCounts returns how many accesses each client issues: the
// uniform AccessesPerClient when rates is nil, otherwise each client's
// rate-proportional share of the n·AccessesPerClient total, apportioned by
// the largest-remainder method so the counts sum to exactly
// n·AccessesPerClient (the counting identities audited downstream depend on
// the exact total). Zero-rate clients issue no accesses: a leftover unit
// only ever lands on a positive fractional remainder, and there are at
// least as many of those as leftover units.
func clientAccessCounts(rates []float64, n, perClient int) []int {
	counts := make([]int, n)
	if rates == nil {
		for v := range counts {
			counts[v] = perClient
		}
		return counts
	}
	rsum := 0.0
	for _, r := range rates {
		rsum += r
	}
	total := n * perClient
	rem := make([]float64, n)
	assigned := 0
	for v := range counts {
		s := float64(total) * rates[v] / rsum
		c := int(math.Floor(s))
		counts[v] = c
		rem[v] = s - float64(c)
		assigned += c
	}
	if leftover := total - assigned; leftover > 0 {
		order := make([]int, n)
		for v := range order {
			order[v] = v
		}
		sort.Slice(order, func(i, j int) bool {
			if rem[order[i]] != rem[order[j]] {
				return rem[order[i]] > rem[order[j]]
			}
			return order[i] < order[j]
		})
		for i := 0; i < leftover; i++ {
			counts[order[i]]++
		}
	}
	return counts
}

// event is a pending access start in a propagation worker's queue.
type event struct {
	at             float64
	seq            int // tie-breaker for determinism
	client, access int
}

// eventQueue is a binary min-heap over (at, seq).
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	i := len(*q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*q).less(i, p) {
			break
		}
		(*q)[i], (*q)[p] = (*q)[p], (*q)[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	old := *q
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*q = old[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && (*q).less(l, m) {
			m = l
		}
		if r < last && (*q).less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		(*q)[i], (*q)[m] = (*q)[m], (*q)[i]
		i = m
	}
	return top
}

// Run executes the simulation and returns aggregate statistics. It is the
// propagation worker (propagate.go) with the failure model off: every node
// alive, one attempt per access, and InterAccessTime between a client's
// accesses.
func Run(cfg Config) (*Stats, error) {
	ins := cfg.Instance
	if err := validateRun(ins, cfg.Placement, cfg.AccessesPerClient, cfg.Workers); err != nil {
		return nil, err
	}
	if err := checkFinite("InterAccessTime", cfg.InterAccessTime); err != nil {
		return nil, err
	}
	if cfg.InterAccessTime < 0 {
		return nil, fmt.Errorf("netsim: negative InterAccessTime %v", cfg.InterAccessTime)
	}
	ws, lat, sum, err := propagate(&FailureConfig{
		Instance: ins, Placement: cfg.Placement, Mode: cfg.Mode,
		AccessesPerClient: cfg.AccessesPerClient, Seed: cfg.Seed,
		Recorder: cfg.Recorder, Heat: cfg.Heat, Workers: cfg.Workers,
	}, cfg.InterAccessTime, false)
	if err != nil {
		return nil, err
	}
	n := ins.M.N()
	stats := &Stats{
		Mode:      cfg.Mode,
		PerClient: make([]float64, n),
		NodeHits:  make([]int64, n),
		latencies: lat,
	}
	for _, w := range ws {
		stats.Accesses += w.accesses
		if w.clock > stats.Clock {
			stats.Clock = w.clock
		}
		for v, h := range w.nodeHits {
			stats.NodeHits[v] += h
		}
		for i, c := range w.perClientN {
			if c > 0 {
				stats.PerClient[w.lo+i] = w.perClient[i] / float64(c)
			}
		}
	}
	stats.AvgLatency = sum / float64(stats.Accesses)
	stats.EmpiricalLoad = make([]float64, n)
	totalAccesses := float64(stats.Accesses)
	for v := 0; v < n; v++ {
		// Empirical load: fraction of all accesses that hit node v — the
		// sampled analogue of load_f(v) = Σ_{u:f(u)=v} load(u). With
		// uniform rates the denominator equals n·AccessesPerClient.
		stats.EmpiricalLoad[v] = float64(stats.NodeHits[v]) / totalAccesses
	}
	return stats, nil
}
