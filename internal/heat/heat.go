// Package heat turns a stream of quorum accesses into deterministic,
// mergeable workload sketches: per-node EWMA rate estimators over virtual
// time, heavy-hitter summaries of hot clients and hot nodes, and a drift
// score (total-variation distance with per-client contributions) between
// the live demand estimate and the demand vector the current placement was
// solved against. It is the observability substrate for workload-driven
// re-planning: the solver's objective is only optimal for the demand it saw
// (internal/agg), so a placement goes stale exactly as fast as the demand
// drifts — heat measures that staleness while the placement is serving.
//
// Today the stream comes from internal/netsim (the simulator configs'
// Heat field); the future quorumd ingestion path feeds the same Observe
// call from real access logs.
//
// # Determinism and merge contract
//
// A Sketch follows the same discipline as obs.LogHist and internal/agg:
// all state is exact integer counts keyed by virtual-time epoch, so
// observation order never matters, and feeding the same accesses through
// any sharding of sketches followed by Merge yields state bitwise
// identical to a single-stream sketch (int64 addition is associative and
// commutative). Derived floating-point views (Rates, Drift) are computed
// at read time by folding epochs in ascending index order, so equal state
// implies bitwise-equal reads. The only approximate component is the
// optional sub-capacity heavy-hitter sketch (see TopK); with the default
// exact configuration every view is exact.
package heat

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Options configures a Sketch.
type Options struct {
	// EpochLen is the virtual-time length of one epoch bucket. Rates are
	// estimated per epoch, so this is the resolution of the EWMA estimator.
	// ≤ 0 means the default of 1 virtual-time unit.
	EpochLen float64
	// HalfLife is the EWMA half-life in epochs: an epoch's weight halves
	// every HalfLife epochs of virtual time. ≤ 0 means the default of 8.
	HalfLife float64
	// TopK bounds the heavy-hitter summaries. 0 (the default) keeps exact
	// dense per-key counts — the right choice while keys are network node
	// indices, as in netsim. A positive value switches to a space-saving
	// sketch of that capacity for unbounded key spaces (client IDs in a
	// real deployment); see TopK for its error and merge guarantees.
	TopK int
}

const (
	defaultEpochLen = 1.0
	defaultHalfLife = 8.0
)

// epochCell holds the exact per-client and per-node counts of one epoch.
type epochCell struct {
	clients []int64 // accesses issued, by client
	nodes   []int64 // messages received, by node
}

// Sketch accumulates an access stream into mergeable workload sketches.
// It is safe for concurrent use.
type Sketch struct {
	epochLen float64
	halfLife float64
	topK     int

	mu           sync.Mutex
	epochs       map[int64]*epochCell
	lastIdx      int64      // cache: epoch index of the most recent Observe
	lastCell     *epochCell // cache: its cell (stream times are near-monotone)
	accesses     int64
	messages     int64
	clientTotals []int64
	nodeTotals   []int64
	// Streaming heavy hitters, only in the sub-capacity (TopK > 0) regime;
	// the exact regime derives Top* views from the dense totals instead.
	hotClients *TopK
	hotNodes   *TopK
}

// New returns an empty sketch. Client and node index spaces grow on
// demand, so one sketch can absorb streams from differently sized runs
// (the qppeval default-sketch path).
func New(o Options) *Sketch {
	if o.EpochLen <= 0 {
		o.EpochLen = defaultEpochLen
	}
	if o.HalfLife <= 0 {
		o.HalfLife = defaultHalfLife
	}
	s := &Sketch{
		epochLen: o.EpochLen,
		halfLife: o.HalfLife,
		topK:     o.TopK,
		epochs:   make(map[int64]*epochCell),
		lastIdx:  math.MinInt64,
	}
	if o.TopK > 0 {
		s.hotClients = NewTopK(o.TopK)
		s.hotNodes = NewTopK(o.TopK)
	}
	return s
}

// grow extends a counter slice to cover index i.
func grow(s []int64, i int) []int64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// Observe folds one access into the sketch: client issued an access at
// virtual time at whose messages hit the given nodes (one entry per
// contacted quorum member; duplicates count once per message, matching
// netsim's NodeHits). Accesses are attributed to the epoch of their issue
// time — that is when the load lands on the nodes.
func (s *Sketch) Observe(at float64, client int, nodes []int) {
	if client < 0 || at < 0 || math.IsNaN(at) {
		return
	}
	idx := int64(at / s.epochLen)
	s.mu.Lock()
	cell := s.lastCell
	if cell == nil || idx != s.lastIdx {
		cell = s.epochs[idx]
		if cell == nil {
			cell = &epochCell{}
			s.epochs[idx] = cell
		}
		s.lastIdx, s.lastCell = idx, cell
	}
	cell.clients = grow(cell.clients, client)
	cell.clients[client]++
	s.clientTotals = grow(s.clientTotals, client)
	s.clientTotals[client]++
	s.accesses++
	if s.hotClients != nil {
		s.hotClients.Add(client, 1)
	}
	for _, v := range nodes {
		if v < 0 {
			continue
		}
		cell.nodes = grow(cell.nodes, v)
		cell.nodes[v]++
		s.nodeTotals = grow(s.nodeTotals, v)
		s.nodeTotals[v]++
		s.messages++
		if s.hotNodes != nil {
			s.hotNodes.Add(v, 1)
		}
	}
	s.mu.Unlock()
}

// Accesses returns the total number of observed accesses.
func (s *Sketch) Accesses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accesses
}

// Messages returns the total number of observed node messages.
func (s *Sketch) Messages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.messages
}

// Epochs returns the number of distinct epochs with observations.
func (s *Sketch) Epochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.epochs)
}

// ClientTotals returns a copy of the exact cumulative per-client access
// counts.
func (s *Sketch) ClientTotals() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.clientTotals...)
}

// NodeTotals returns a copy of the exact cumulative per-node message
// counts.
func (s *Sketch) NodeTotals() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.nodeTotals...)
}

// sortedEpochIdx returns the present epoch indices in ascending order.
// Callers hold s.mu.
func (s *Sketch) sortedEpochIdx() []int64 {
	idx := make([]int64, 0, len(s.epochs))
	for e := range s.epochs {
		idx = append(idx, e)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	return idx
}

// ewma folds per-epoch counts into EWMA rates as of the latest observed
// epoch. pick selects the counter slice of a cell. Callers hold s.mu.
func (s *Sketch) ewma(pick func(*epochCell) []int64) []float64 {
	idx := s.sortedEpochIdx()
	if len(idx) == 0 {
		return nil
	}
	// λ per epoch so that weight halves every halfLife epochs. The fold
	// visits only present epochs in ascending order; the g−1 empty epochs
	// inside a gap of g decay every rate by λ^(g−1), exactly what folding
	// g−1 zero-count epochs would do (the present epoch's own update
	// contributes the remaining λ). The iteration order is deterministic
	// (sorted), so equal state yields bitwise-equal rates.
	lambda := math.Pow(0.5, 1/s.halfLife)
	var rates []float64
	prev := idx[0]
	for _, e := range idx {
		if gap := e - prev; gap > 1 {
			decay := math.Pow(lambda, float64(gap-1))
			for i := range rates {
				rates[i] *= decay
			}
		}
		counts := pick(s.epochs[e])
		for len(rates) < len(counts) {
			rates = append(rates, 0)
		}
		for i, c := range counts {
			rates[i] = lambda*rates[i] + (1-lambda)*float64(c)
		}
		// Indices past len(counts) saw zero observations this epoch.
		for i := len(counts); i < len(rates); i++ {
			rates[i] *= lambda
		}
		prev = e
	}
	return rates
}

// ClientRates returns the per-client EWMA access-rate estimate (accesses
// per epoch) as of the latest observed epoch.
func (s *Sketch) ClientRates() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ewma(func(c *epochCell) []int64 { return c.clients })
}

// NodeRates returns the per-node EWMA message-rate estimate (messages per
// epoch) as of the latest observed epoch.
func (s *Sketch) NodeRates() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ewma(func(c *epochCell) []int64 { return c.nodes })
}

// topFromTotals builds the exact heavy-hitter view from dense totals.
func topFromTotals(totals []int64, k int) []TopEntry {
	entries := make([]TopEntry, 0, len(totals))
	for key, c := range totals {
		if c > 0 {
			entries = append(entries, TopEntry{Key: key, Count: c})
		}
	}
	sortTopEntries(entries)
	if k > 0 && len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

// TopClients returns the k heaviest clients by access count (all when
// k ≤ 0), ordered by count descending with index ascending as tie-break.
// Exact in the default configuration; within the TopK guarantees otherwise.
func (s *Sketch) TopClients(k int) []TopEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hotClients != nil {
		return s.hotClients.Top(k)
	}
	return topFromTotals(s.clientTotals, k)
}

// TopNodes returns the k heaviest nodes by message count (all when k ≤ 0).
func (s *Sketch) TopNodes(k int) []TopEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hotNodes != nil {
		return s.hotNodes.Top(k)
	}
	return topFromTotals(s.nodeTotals, k)
}

// Merge folds o into s. Both sketches must share EpochLen, HalfLife and
// TopK configuration; their index spaces may differ (the merged sketch
// covers the union). Merging shards of a partitioned stream yields state
// bitwise identical to observing the whole stream in one sketch, in any
// merge order, except for the sub-capacity TopK regime whose guarantees
// are documented on TopK.Merge.
func (s *Sketch) Merge(o *Sketch) error {
	return s.MergeShifted(o, 0)
}

// EpochLen returns the resolved virtual-time length of one epoch bucket.
func (s *Sketch) EpochLen() float64 { return s.epochLen }

// MergeShifted is Merge with o's epoch indices displaced by shift epochs:
// an observation o recorded in its epoch e lands in s's epoch e+shift.
// Ingesting sketches produced by simulation runs that each start at
// virtual time zero (netsim) into a long-lived daemon sketch needs the
// offset, or every run's epochs would collapse onto the same indices.
// Totals and heavy-hitter summaries are time-free and merge unchanged, so
// with shift = 0 the result is bitwise identical to Merge.
func (s *Sketch) MergeShifted(o *Sketch, shift int64) error {
	if s == o {
		return fmt.Errorf("heat: cannot merge a sketch into itself")
	}
	if s.epochLen != o.epochLen || s.halfLife != o.halfLife || s.topK != o.topK {
		return fmt.Errorf("heat: merging incompatible sketches (epoch %v/%v, half-life %v/%v, topk %d/%d)",
			s.epochLen, o.epochLen, s.halfLife, o.halfLife, s.topK, o.topK)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for e, oc := range o.epochs {
		c := s.epochs[e+shift]
		if c == nil {
			c = &epochCell{}
			s.epochs[e+shift] = c
		}
		c.clients = addCounts(c.clients, oc.clients)
		c.nodes = addCounts(c.nodes, oc.nodes)
	}
	s.lastIdx, s.lastCell = math.MinInt64, nil
	s.clientTotals = addCounts(s.clientTotals, o.clientTotals)
	s.nodeTotals = addCounts(s.nodeTotals, o.nodeTotals)
	s.accesses += o.accesses
	s.messages += o.messages
	if s.hotClients != nil {
		if err := s.hotClients.Merge(o.hotClients); err != nil {
			return err
		}
		if err := s.hotNodes.Merge(o.hotNodes); err != nil {
			return err
		}
	}
	return nil
}

// MaxEpoch returns the largest epoch index holding observations and whether
// any epoch exists at all. A daemon ingesting run-local sketches uses it to
// advance its epoch base between runs.
func (s *Sketch) MaxEpoch() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	max, ok := int64(math.MinInt64), false
	for e := range s.epochs {
		if !ok || e > max {
			max, ok = e, true
		}
	}
	return max, ok
}

// NewShard returns an empty sketch with this sketch's configuration, the
// shape Merge requires. Parallel observers (the sharded netsim engine)
// give each worker a shard and fold them back with Merge after the join;
// the merge contract above makes the result bitwise identical to
// single-stream observation.
func (s *Sketch) NewShard() *Sketch {
	return New(Options{EpochLen: s.epochLen, HalfLife: s.halfLife, TopK: s.topK})
}

func addCounts(dst, src []int64) []int64 {
	dst = grow(dst, len(src)-1)
	for i, c := range src {
		dst[i] += c
	}
	return dst
}

// Equal reports whether two sketches hold identical state: same
// configuration, same exact counts in every epoch, and identical
// heavy-hitter summaries. Zero-padded tails of the index spaces are
// ignored, so a sketch that merely grew further compares equal.
func (s *Sketch) Equal(o *Sketch) bool {
	if s.epochLen != o.epochLen || s.halfLife != o.halfLife || s.topK != o.topK {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.accesses != o.accesses || s.messages != o.messages {
		return false
	}
	if !countsEqual(s.clientTotals, o.clientTotals) || !countsEqual(s.nodeTotals, o.nodeTotals) {
		return false
	}
	if len(s.epochs) != len(o.epochs) {
		return false
	}
	for e, c := range s.epochs {
		oc := o.epochs[e]
		if oc == nil || !countsEqual(c.clients, oc.clients) || !countsEqual(c.nodes, oc.nodes) {
			return false
		}
	}
	if s.hotClients != nil {
		if !s.hotClients.Equal(o.hotClients) || !s.hotNodes.Equal(o.hotNodes) {
			return false
		}
	}
	return true
}

func countsEqual(a, b []int64) bool {
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	for i, c := range short {
		if c != long[i] {
			return false
		}
	}
	for _, c := range long[len(short):] {
		if c != 0 {
			return false
		}
	}
	return true
}
