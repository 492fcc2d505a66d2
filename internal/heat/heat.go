// Package heat turns a stream of quorum accesses into deterministic,
// mergeable workload sketches: per-node EWMA rate estimators over virtual
// time, exact top-k views of hot clients and hot nodes, and a drift
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
// implies bitwise-equal reads.
//
// Raw cells are kept only for a window of W = ⌈8·HalfLife⌉ epochs, by
// which time an epoch's weight has halved eight times. A rate read first seals every
// epoch more than W behind the newest one: it folds those cells once, in
// ascending order, into a stored EWMA checkpoint and drops them; then it
// folds the at most W+1 window cells onto a copy of the checkpoint. These
// are the float operations of one sorted fold over every epoch, in the same
// order, so a read is bitwise equal to that fold whenever every write lands
// within W epochs of the newest epoch at the previous read — and a sketch
// read only after all writes (a netsim shard, an experiment's sketch) is
// exactly the unwindowed sketch. A write into a sealed epoch is late: it
// counts in the exact totals and in Late, but not in the rates. A sketch
// with sealed epochs cannot be a Merge source.
package heat

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"quorumplace/internal/obs"
)

// Options configures a Sketch.
type Options struct {
	// EpochLen is the virtual-time length of one epoch bucket. Rates are
	// estimated per epoch, so this is the resolution of the EWMA estimator.
	// ≤ 0 means the default of 1 virtual-time unit.
	EpochLen float64
	// HalfLife is the EWMA half-life in epochs: an epoch's weight halves
	// every HalfLife epochs of virtual time. ≤ 0 means the default of 8.
	// Raw epoch cells are kept for ⌈8·HalfLife⌉ epochs (see the package
	// doc).
	HalfLife float64
}

const (
	defaultEpochLen = 1.0
	defaultHalfLife = 8.0
	// windowHalfLives is W in half-lives: an epoch W epochs behind the
	// newest weighs 2⁻⁸ of what it weighed as the newest.
	windowHalfLives = 8
)

// epochCell holds the exact per-client and per-node counts of one epoch.
type epochCell struct {
	clients []int64 // accesses issued, by client
	nodes   []int64 // messages received, by node
}

// checkpoint is the EWMA fold of every sealed epoch: the rates the sorted
// fold holds right after its last sealed epoch.
type checkpoint struct {
	clients []float64
	nodes   []float64
	last    int64 // index of the last sealed epoch with observations
	epochs  int   // sealed epochs with observations; 0 means empty
}

// Sketch accumulates an access stream into mergeable workload sketches.
// It is safe for concurrent use.
type Sketch struct {
	epochLen float64
	halfLife float64
	lambda   float64 // per-epoch decay: weight halves every halfLife epochs
	window   int64   // W: epochs kept raw behind the newest one

	mu           sync.Mutex
	epochs       map[int64]*epochCell // raw cells of the unsealed epochs
	ckpt         checkpoint
	sealed       int64      // every epoch below this index is sealed
	maxEpoch     int64      // newest epoch holding observations
	late         int64      // accesses written into sealed epochs
	keys         []int64    // read scratch: the window's epoch indices
	lastIdx      int64      // cache: epoch index of the most recent Observe
	lastCell     *epochCell // cache: its cell (stream times are near-monotone)
	accesses     int64
	messages     int64
	clientTotals []int64
	nodeTotals   []int64
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
	w := math.Ceil(windowHalfLives * o.HalfLife)
	if !(w < 1<<62) { // so huge that nothing ever seals
		w = 1 << 62
	}
	return &Sketch{
		epochLen: o.EpochLen,
		halfLife: o.HalfLife,
		lambda:   math.Pow(0.5, 1/o.HalfLife),
		window:   int64(w),
		epochs:   make(map[int64]*epochCell),
		sealed:   math.MinInt64,
		maxEpoch: math.MinInt64,
		lastIdx:  math.MinInt64,
	}
}

// grow extends a counter slice to cover index i.
func grow(s []int64, i int) []int64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// cell returns epoch idx's raw cell, creating it if needed, or nil when
// the epoch is sealed. Callers hold s.mu.
func (s *Sketch) cell(idx int64) *epochCell {
	if idx < s.sealed {
		return nil
	}
	c := s.epochs[idx]
	if c == nil {
		c = &epochCell{}
		s.epochs[idx] = c
		s.maxEpoch = max(s.maxEpoch, idx)
	}
	return c
}

// Observe folds one access into the sketch: client issued an access at
// virtual time at whose messages hit the given nodes (one entry per
// contacted quorum member; duplicates count once per message, matching
// netsim's NodeHits). Accesses are attributed to the epoch of their issue
// time — that is when the load lands on the nodes. Negative clients and
// times that are negative, NaN or past the int64 epoch range are dropped.
func (s *Sketch) Observe(at float64, client int, nodes []int) {
	idx, ok := s.Epoch(at)
	if client < 0 || !ok {
		return
	}
	s.mu.Lock()
	cell := s.lastCell
	if cell == nil || idx != s.lastIdx {
		cell = s.cell(idx)
		s.lastIdx, s.lastCell = idx, cell
	}
	// Each slice header is written back only when it grows: a store of a
	// pointer into a heap object pays a write barrier while GC runs.
	if cell != nil {
		if client >= len(cell.clients) {
			cell.clients = grow(cell.clients, client)
		}
		cell.clients[client]++
	} else {
		s.late++
	}
	if client >= len(s.clientTotals) {
		s.clientTotals = grow(s.clientTotals, client)
	}
	s.clientTotals[client]++
	s.accesses++
	for _, v := range nodes {
		if v < 0 {
			continue
		}
		if cell != nil {
			if v >= len(cell.nodes) {
				cell.nodes = grow(cell.nodes, v)
			}
			cell.nodes[v]++
		}
		if v >= len(s.nodeTotals) {
			s.nodeTotals = grow(s.nodeTotals, v)
		}
		s.nodeTotals[v]++
		s.messages++
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

// Late returns the number of accesses written into epochs a rate read had
// already sealed. They count in every exact total but not in the rates.
func (s *Sketch) Late() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.late
}

// Epochs returns the number of distinct epochs with observations, sealed
// ones included.
func (s *Sketch) Epochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckpt.epochs + len(s.epochs)
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

// foldEpoch advances EWMA rates by one present epoch lying gap epochs after
// the previously folded one. The g−1 empty epochs inside a gap of g decay
// every rate by λ^(g−1), exactly what folding g−1 zero-count epochs would
// do; the epoch's own update contributes the remaining λ.
func foldEpoch(rates []float64, counts []int64, gap int64, lambda float64) []float64 {
	if gap > 1 {
		decay := math.Pow(lambda, float64(gap-1))
		for i := range rates {
			rates[i] *= decay
		}
	}
	if len(rates) < len(counts) {
		rates = append(rates, make([]float64, len(counts)-len(rates))...)
	}
	for i, c := range counts {
		rates[i] = lambda*rates[i] + (1-lambda)*float64(c)
	}
	// Indices past len(counts) saw zero observations this epoch.
	for i := len(counts); i < len(rates); i++ {
		rates[i] *= lambda
	}
	return rates
}

// seal folds every cell more than W epochs behind the newest one into the
// checkpoint, in ascending order, and drops it. It returns the remaining
// window's epoch indices in ascending order, in scratch the next read
// reuses, and the number of epochs it sealed. Callers hold s.mu.
func (s *Sketch) seal() ([]int64, int) {
	keys := s.keys[:0]
	for e := range s.epochs {
		keys = append(keys, e)
	}
	slices.Sort(keys)
	s.keys = keys
	bound := s.maxEpoch - s.window
	if bound > s.maxEpoch { // wrapped (or empty): nothing lies W epochs back
		bound = math.MinInt64
	}
	s.sealed = max(s.sealed, bound)
	n := 0
	for n < len(keys) && keys[n] < bound {
		n++
	}
	if n == 0 {
		return keys, 0
	}
	prev := s.ckpt.last
	if s.ckpt.epochs == 0 {
		prev = keys[0]
	}
	for _, e := range keys[:n] {
		c := s.epochs[e]
		s.ckpt.clients = foldEpoch(s.ckpt.clients, c.clients, e-prev, s.lambda)
		s.ckpt.nodes = foldEpoch(s.ckpt.nodes, c.nodes, e-prev, s.lambda)
		prev = e
		delete(s.epochs, e)
	}
	s.ckpt.last = prev
	s.ckpt.epochs += n
	if s.lastIdx < bound {
		s.lastIdx, s.lastCell = math.MinInt64, nil
	}
	keys = keys[n:]
	if n > len(keys) {
		// Most cells went: move the rest to fresh storage, since a Go map
		// never shrinks and the scratch would keep its peak size.
		window := make(map[int64]*epochCell, len(keys))
		for _, e := range keys {
			window[e] = s.epochs[e]
		}
		s.epochs = window
		keys = slices.Clone(keys)
		s.keys = keys
	}
	return keys, n
}

// ewma returns EWMA rates as of the newest epoch: base, the matching
// checkpoint rates, with the window cells at keys folded on in ascending
// order. pick selects a cell's counter slice. Callers hold s.mu and pass
// the keys and the sealed-epoch count seal returned; ewma counts the read's
// sealed and window epochs as heat.folded_epochs, the exact work of a rate
// read, which stays at most W+1 plus the epochs newly sealed.
func (s *Sketch) ewma(keys []int64, sealed int, base []float64, pick func(*epochCell) []int64) []float64 {
	obs.Count("heat.folded_epochs", int64(sealed+len(keys)))
	if len(keys) == 0 {
		return nil
	}
	rates := append([]float64(nil), base...)
	prev := s.ckpt.last
	if s.ckpt.epochs == 0 {
		prev = keys[0]
	}
	for _, e := range keys {
		rates = foldEpoch(rates, pick(s.epochs[e]), e-prev, s.lambda)
		prev = e
	}
	return rates
}

// ClientRates returns the per-client EWMA access-rate estimate (accesses
// per epoch) as of the latest observed epoch.
func (s *Sketch) ClientRates() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, sealed := s.seal()
	return s.ewma(keys, sealed, s.ckpt.clients, func(c *epochCell) []int64 { return c.clients })
}

// NodeRates returns the per-node EWMA message-rate estimate (messages per
// epoch) as of the latest observed epoch.
func (s *Sketch) NodeRates() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, sealed := s.seal()
	return s.ewma(keys, sealed, s.ckpt.nodes, func(c *epochCell) []int64 { return c.nodes })
}

// TopEntry is one heavy hitter: a client or node index and its exact
// count.
type TopEntry struct {
	Key   int
	Count int64
}

// topFromTotals builds the heavy-hitter view from dense totals: the k
// heaviest keys (all when k ≤ 0), ordered by count descending with index
// ascending as tie-break.
func topFromTotals(totals []int64, k int) []TopEntry {
	entries := make([]TopEntry, 0, len(totals))
	for key, c := range totals {
		if c > 0 {
			entries = append(entries, TopEntry{Key: key, Count: c})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	if k > 0 && len(entries) > k {
		entries = entries[:k]
	}
	return entries
}

// TopClients returns the k heaviest clients by access count (all when
// k ≤ 0), ordered by count descending with index ascending as tie-break.
func (s *Sketch) TopClients(k int) []TopEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return topFromTotals(s.clientTotals, k)
}

// TopNodes returns the k heaviest nodes by message count (all when k ≤ 0).
func (s *Sketch) TopNodes(k int) []TopEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return topFromTotals(s.nodeTotals, k)
}

// Merge folds o into s. Both sketches must share EpochLen and HalfLife;
// their index spaces may differ (the merged sketch covers the union).
// Merging shards of a partitioned stream yields state bitwise identical to
// observing the whole stream in one sketch, in any merge order.
func (s *Sketch) Merge(o *Sketch) error {
	return s.MergeShifted(o, 0)
}

// EpochLen returns the resolved virtual-time length of one epoch bucket.
func (s *Sketch) EpochLen() float64 { return s.epochLen }

// Epoch returns the epoch index of virtual time at, and whether Observe
// records an access at that time: it does not when at is negative or NaN,
// or when its epoch index passes the int64 range.
func (s *Sketch) Epoch(at float64) (int64, bool) {
	x := at / s.epochLen
	// Written so that NaN, which fails every comparison, is unobservable.
	if !(at >= 0) || !(x < 0x1p63) {
		return 0, false
	}
	return int64(x), true
}

// Window returns W = ⌈8·HalfLife⌉, the number of epochs behind the newest
// one that the sketch keeps raw. A write at most W epochs behind the newest
// epoch at the previous rate read still counts in the rates; one further
// back may land in a sealed epoch and count only in the totals and Late.
func (s *Sketch) Window() int64 { return s.window }

// MergeShifted is Merge with o's epoch indices displaced by shift epochs:
// an observation o recorded in its epoch e lands in s's epoch e+shift.
// Ingesting sketches produced by simulation runs that each start at
// virtual time zero (netsim) into a long-lived daemon sketch needs the
// offset, or every run's epochs would collapse onto the same indices.
// Totals are time-free and merge unchanged, so with shift = 0 the result
// is bitwise identical to Merge. o must have no sealed epochs, since their
// raw counts are gone; an o cell that lands in an epoch s has sealed is
// late in s.
func (s *Sketch) MergeShifted(o *Sketch, shift int64) error {
	if s == o {
		return fmt.Errorf("heat: cannot merge a sketch into itself")
	}
	if s.epochLen != o.epochLen || s.halfLife != o.halfLife {
		return fmt.Errorf("heat: merging incompatible sketches (epoch %v/%v, half-life %v/%v)",
			s.epochLen, o.epochLen, s.halfLife, o.halfLife)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ckpt.epochs > 0 {
		return fmt.Errorf("heat: cannot merge a sketch with %d sealed epochs", o.ckpt.epochs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for e, oc := range o.epochs {
		c := s.cell(e + shift)
		if c == nil {
			for _, n := range oc.clients {
				s.late += n
			}
			continue
		}
		c.clients = addCounts(c.clients, oc.clients)
		c.nodes = addCounts(c.nodes, oc.nodes)
	}
	s.lastIdx, s.lastCell = math.MinInt64, nil
	s.clientTotals = addCounts(s.clientTotals, o.clientTotals)
	s.nodeTotals = addCounts(s.nodeTotals, o.nodeTotals)
	s.accesses += o.accesses
	s.messages += o.messages
	s.late += o.late
	return nil
}

// MaxEpoch returns the largest epoch index holding observations and whether
// any epoch exists at all. A daemon ingesting run-local sketches uses it to
// advance its epoch base between runs.
func (s *Sketch) MaxEpoch() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxEpoch, s.ckpt.epochs+len(s.epochs) > 0
}

// NewShard returns an empty sketch with this sketch's configuration, the
// shape Merge requires. Parallel observers (the sharded netsim engine)
// give each worker a shard and fold them back with Merge after the join;
// the merge contract above makes the result bitwise identical to
// single-stream observation.
func (s *Sketch) NewShard() *Sketch {
	return New(Options{EpochLen: s.epochLen, HalfLife: s.halfLife})
}

func addCounts(dst, src []int64) []int64 {
	dst = grow(dst, len(src)-1)
	for i, c := range src {
		dst[i] += c
	}
	return dst
}

// Equal reports whether two sketches hold identical state: same
// configuration, same exact counts in every raw epoch, and the same
// checkpoint, seal point and late count. Zero-padded tails of the index
// spaces are ignored, so a sketch that merely grew further compares equal.
func (s *Sketch) Equal(o *Sketch) bool {
	if s.epochLen != o.epochLen || s.halfLife != o.halfLife {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.accesses != o.accesses || s.messages != o.messages || s.late != o.late || s.sealed != o.sealed {
		return false
	}
	if !tailEqual(s.clientTotals, o.clientTotals) || !tailEqual(s.nodeTotals, o.nodeTotals) {
		return false
	}
	sc, oc := s.ckpt, o.ckpt
	if sc.epochs != oc.epochs || sc.last != oc.last ||
		!tailEqual(sc.clients, oc.clients) || !tailEqual(sc.nodes, oc.nodes) {
		return false
	}
	if len(s.epochs) != len(o.epochs) {
		return false
	}
	for e, c := range s.epochs {
		oc := o.epochs[e]
		if oc == nil || !tailEqual(c.clients, oc.clients) || !tailEqual(c.nodes, oc.nodes) {
			return false
		}
	}
	return true
}

// tailEqual compares two slices as if the shorter were padded with zeros.
func tailEqual[T int64 | float64](a, b []T) bool {
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
