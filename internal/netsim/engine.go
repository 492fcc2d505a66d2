package netsim

// The simulation engine shared by Run, RunWithFailures and RunQueueing: a
// sharded deterministic discrete-event engine (conservative-window PDES).
//
// A run partitions the simulation entities (clients, and for the queueing
// simulator also the node service queues) into Workers contiguous blocks,
// one per worker, each with its own event wheel, and keeps the outcome
// independent of the partition with three ingredients:
//
//  1. Per-entity RNG streams. Every client (and every node, for service
//     times) draws from a private splitmix64 counter stream seeded from
//     (Seed, entity id). An entity's draws depend only on its own event
//     order, never on how entities interleave globally, so the outcome is
//     invariant under the number of workers and the shard assignment.
//     Because the stream is a counter, the k-th next draw is a closed
//     form of the current state (prng.peek): an access computes only the
//     draws it reads — a failure run's crash states of the hosting nodes,
//     not of every node — and jumps past the rest (prng.skip), leaving
//     every value and the stream position bitwise as if it had drawn
//     them all in order.
//  2. A canonical total event order. Ties at equal virtual time break on
//     a composite key of the event's identity (kind, client, access,
//     node, member slot) instead of heap insertion order, so every shard
//     — and any merge of shards — orders events identically.
//  3. Conservative time windows (queueing only). Clients interact through
//     the node FIFOs, so shards exchange events at barriers and each
//     round processes only the window [T, T+L) that no in-flight
//     cross-shard event can invalidate, where the lookahead L is the
//     minimum distance between any client and any quorum-hosting node in
//     different shards. The propagation-only simulators have no
//     cross-entity interaction at all, so their lookahead is unbounded
//     and workers run barrier-free to completion.
//
// Results are merged in fixed canonical order: per-access records k-way
// merge on (at, client, access); integer statistics (node hits, SLO
// window counts, heat sketch cells, histogram buckets) are associative
// and merge losslessly in any order; floating-point accumulations fold
// either over the canonical merged stream or per entity in index order,
// so the same bits come out for every worker count.
//
// Contract: with the same Seed, every Workers value produces
// bitwise-identical Stats / FailureStats / QueueStats, traces, SLO
// windows, time-series samples and heat sketches. Workers = 0 runs one
// worker, exactly like Workers = 1.
//
// The scaffold around the per-event step lives here and is the same for
// every simulator: a simRun opens the span and registers the run with the
// recorder, partition splits the entities into shards, drive runs the
// workers (inline, or in windows across goroutines), and merge folds the
// shards back in canonical order. A simulator supplies only its worker:
// propagation (propagate.go) or the FIFO service queues (queueing.go).

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"quorumplace/internal/heat"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Stream salts separating the per-entity RNG stream families of one run.
const (
	streamAccess  = 0x7a25e6f3c1d40b19 // client streams: quorum sampling, think times, crash states
	streamService = 0x3c6ef372fe94f82b // node streams: queueing service times
	streamTrace   = 0x5851f42d4c957f2d // deterministic trace-sampling hash
)

// prng is an 8-byte splitmix64 counter stream, cheap enough that every
// client and node of a million-entity run affords a private stream (the
// shared math/rand source carries 607 words of state — 5 KB per stream —
// and its draw order couples all entities together).
//
// A draw adds the constant γ to the counter and mixes the result, so the
// k-th next draw is mix64(state + k·γ) (mod 2⁶⁴) whatever happens in
// between. peek and skip use that identity: a simulator reads only the
// draws an access needs, at their positions in the stream, and jumps past
// the rest with one addition. The values and the stream position are
// exactly those of drawing one by one, because both are the same integer
// additions.
type prng struct{ state uint64 }

// prngGamma is the counter increment γ of one draw.
const prngGamma = 0x9e3779b97f4a7c15

// newPRNG derives the stream for one entity of one run.
func newPRNG(seed int64, stream uint64, id int) prng {
	return prng{state: mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ stream ^ uint64(id)*0xd1342543de82ef95)}
}

func (p *prng) next() uint64 {
	p.state += prngGamma
	return mix64(p.state)
}

// peek returns the k-th next draw (k ≥ 1) without advancing the stream.
func (p *prng) peek(k int) uint64 {
	return mix64(p.state + uint64(k)*prngGamma)
}

// skip advances the stream past k draws.
func (p *prng) skip(k int) {
	p.state += uint64(k) * prngGamma
}

// unitFloat maps a draw to a uniform value in [0, 1) with 53 random bits.
func unitFloat(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (p *prng) Float64() float64 {
	return unitFloat(p.next())
}

// ExpFloat64 returns an exponential draw of mean 1 by inversion.
func (p *prng) ExpFloat64() float64 {
	return -math.Log(1 - p.Float64())
}

// shardOfEntity maps entity index v to its shard under the block
// partition of n entities over w shards (shard s owns the contiguous
// index range [⌊s·n/w⌋, ⌊(s+1)·n/w⌋)). The expression is the exact
// inverse of those floored bounds: s is the largest shard with
// ⌊s·n/w⌋ ≤ v, i.e. the largest s with s·n < (v+1)·w.
func shardOfEntity(v, n, w int) int {
	return ((v+1)*w - 1) / n
}

// clampWorkers maps a Workers knob to a shard count: 0 runs one worker,
// and workers beyond the entity count would own empty shards (the result
// is identical either way, the clamp just skips spawning them).
func clampWorkers(workers, n int) int {
	if workers < 1 {
		return 1
	}
	if workers > n {
		return n
	}
	return workers
}

// validateRun checks the settings all three simulators share.
func validateRun(ins *placement.Instance, pl placement.Placement, accessesPerClient, workers int) error {
	if ins == nil {
		return fmt.Errorf("netsim: nil instance")
	}
	if err := ins.Validate(pl); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	if accessesPerClient <= 0 {
		return fmt.Errorf("netsim: AccessesPerClient = %d, want > 0", accessesPerClient)
	}
	if workers < 0 {
		return fmt.Errorf("netsim: Workers = %d, want >= 0 (0 = one worker)", workers)
	}
	return nil
}

// hostingNodes returns the distinct nodes that host an element, ascending.
func hostingNodes(pl placement.Placement) []int {
	hosts := make([]int, pl.Len())
	for u := range hosts {
		hosts[u] = pl.Node(u)
	}
	slices.Sort(hosts)
	return slices.Compact(hosts)
}

// checkFinite rejects a NaN or infinite float setting by name. The range
// checks alone would let NaN through, since it fails every comparison.
func checkFinite(name string, x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("netsim: %s = %v, want a finite value", name, x)
	}
	return nil
}

// shouldTraceDet is the trace-sampling predicate: a deterministic
// pseudo-random 1-in-every subset keyed by (seed, client, access).
// Hashing the access identity, rather than counting accesses in event
// order, lets every shard decide locally and keeps the sample invariant
// under sharding.
func shouldTraceDet(traceSeed uint64, client, access, every int) bool {
	if every <= 1 {
		return true
	}
	h := mix64(traceSeed ^ uint64(client)*0x9e3779b97f4a7c15 ^ uint64(access)*0xd1342543de82ef95)
	return h%uint64(every) == 0
}

// traceSeedFor derives the sampling hash salt of one run.
func traceSeedFor(seed int64) uint64 {
	return mix64(uint64(seed) ^ streamTrace)
}

// latRec is one completed access in a worker's canonical-order buffer:
// enough to k-way merge latency streams across shards on (at, client)
// and re-fold the global sums in canonical order.
type latRec struct {
	at     float64 // canonical-order key: issue time, or completion time in the queueing simulator
	lat    float64
	client int32
}

// latLess orders latency records canonically. Records of one client are
// already in access order within their worker stream, so (at, client) is
// a total order across streams (ties within a client keep stream order
// because the merge is stable for equal keys).
func latLess(a, b latRec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.client < b.client
}

// keyedTrace is a completed AccessTrace held back in a worker buffer
// until the canonical merge replays it into the shared Recorder.
type keyedTrace struct {
	at     float64 // recorder-order key, as latRec.at
	client int
	access int
	tr     AccessTrace
}

func traceLess(a, b keyedTrace) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.client != b.client {
		return a.client < b.client
	}
	return a.access < b.access
}

// kmerge visits the records of the workers' canonically ordered buffers
// in canonical order (k-way merge; ties go to the lower worker index).
func kmerge[T any](bufs [][]T, less func(a, b T) bool, visit func(T)) {
	idx := make([]int, len(bufs))
	for {
		best := -1
		for w, b := range bufs {
			if idx[w] < len(b) && (best < 0 || less(b[idx[w]], bufs[best][idx[best]])) {
				best = w
			}
		}
		if best < 0 {
			return
		}
		visit(bufs[best][idx[best]])
		idx[best]++
	}
}

// mergeSamples folds per-worker time-series buffers into rec. Worker w's
// k-th sample sits at the k-th interval boundary (every worker emits the
// identical boundary sequence after its trailing advance), so samples
// combine index-by-index: integer gauges add, vectors add elementwise.
func mergeSamples(rec *Recorder, buffers [][]TSample) {
	n := 0
	for _, b := range buffers {
		if len(b) > n {
			n = len(b)
		}
	}
	for k := 0; k < n; k++ {
		var out TSample
		first := true
		for _, b := range buffers {
			if k >= len(b) {
				continue
			}
			s := b[k]
			if first {
				out = TSample{Run: s.Run, At: s.At}
				first = false
			}
			out.InFlight += s.InFlight
			out.Accesses += s.Accesses
			out.NodeHits = addVec(out.NodeHits, s.NodeHits)
			out.QueueDepth = addVec(out.QueueDepth, s.QueueDepth)
		}
		rec.addSample(out)
	}
}

// addVec adds src into dst elementwise, growing dst to src's length.
func addVec[T int | int64](dst, src []T) []T {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// simRun is what one simulation run shares across its workers: the
// network size, the quorum sampler and the telemetry sinks.
type simRun struct {
	n         int
	cdf       []float64 // quorum-sampling CDF, read-only
	acc       float64   // total mass of cdf
	guide     []int32   // guide table over cdf (newGuide), read-only
	span      *obs.Span
	rec       *Recorder // nil when tracing is off
	runID     int
	slo       bool
	every     int    // trace sampling divisor
	traceSeed uint64 // trace sampling hash salt
	sketch    *heat.Sketch
}

// newSimRun opens the run's span and registers the run with its recorder.
func newSimRun(span string, ins *placement.Instance, seed int64, rec *Recorder, sketch *heat.Sketch) *simRun {
	r := &simRun{n: ins.M.N(), span: obs.Start(span), rec: rec, every: 1, traceSeed: traceSeedFor(seed), sketch: sketch}
	r.cdf = make([]float64, ins.Sys.NumQuorums())
	for q := range r.cdf {
		r.acc += ins.Strat.P(q)
		r.cdf[q] = r.acc
	}
	r.guide = newGuide(r.cdf, r.acc)
	if rec != nil {
		r.runID = rec.beginRun()
		r.slo = rec.sloEnabled()
		if r.slo {
			rec.sloSetNodes(r.runID, r.n)
		}
		r.every = rec.sampleEvery
	}
	return r
}

// newGuide builds the guide table of a quorum-sampling CDF: g buckets, g
// the largest power of two not above the quorum count, where bucket b
// holds the quorum that u = b/g selects.
func newGuide(cdf []float64, acc float64) []int32 {
	g := 1
	for 2*g <= len(cdf) {
		g *= 2
	}
	guide := make([]int32, g)
	for b := range guide {
		guide[b] = int32(min(sort.SearchFloat64s(cdf, float64(b)/float64(g)*acc), len(cdf)-1))
	}
	return guide
}

// sampleQuorum returns the quorum a uniform u ∈ [0, 1) selects: bitwise
// sort.SearchFloat64s(cdf, u·acc) clamped to the last quorum. Scaling by
// the power of two g is exact, so u lies in bucket b = ⌊u·g⌋ with
// u ≥ b/g; rounded multiplication is monotone, so u·acc ≥ (b/g)·acc, and
// the search result (nondecreasing in its argument) is at least guide[b].
// The scan from there therefore stops at the exact answer. Each CDF entry
// lies in one bucket's range and g > quorums/2, so a uniform u scans past
// fewer than two entries on average.
func (r *simRun) sampleQuorum(u float64) int {
	x := u * r.acc
	i := int(r.guide[int(u*float64(len(r.guide)))])
	last := len(r.cdf) - 1
	for i < last && r.cdf[i] < x {
		i++
	}
	return i
}

// traced reports whether the run records a trace of the given access.
func (r *simRun) traced(client, access int) bool {
	return r.rec != nil && shouldTraceDet(r.traceSeed, client, access, r.every)
}

// shard is one worker's block [lo, hi) of the entity index space, with
// its private telemetry shards and the buffers merge folds back in
// canonical order once every worker is done.
type shard struct {
	*simRun
	id, lo, hi int
	ht         *heat.Sketch // worker heat shard, nil when heat is off
	sh         *obs.Shard   // worker telemetry shard, nil when telemetry is off
	accNodes   []int        // per-access scratch of the nodes hit, nil unless SLO or heat is on
	lastAt     float64      // time of the last processed event (nondecreasing)
	latBuf     []latRec     // completed accesses, canonical order
	traces     []keyedTrace // traced accesses, canonical order
	ts         *tsState     // nil unless the run samples a time series
}

// partition splits the run's entities into w contiguous shards. series
// selects whether the shards sample the recorder's time series.
func (r *simRun) partition(w int, series bool) []shard {
	shards := make([]shard, w)
	for i := range shards {
		s := &shards[i]
		s.simRun, s.id, s.lo, s.hi = r, i, i*r.n/w, (i+1)*r.n/w
		s.sh = obs.NewShard(r.span)
		if r.sketch != nil {
			s.ht = r.sketch.NewShard()
		}
		if r.slo || s.ht != nil {
			s.accNodes = make([]int, 0, 16)
		}
		if series {
			s.ts = newTSState(r.rec, r.runID)
		}
	}
	return shards
}

// worker is one simulator's per-event step over a shard.
type worker interface {
	base() *shard
	// start schedules the shard's initial events.
	start()
	// top returns the time of the earliest pending event, or +Inf.
	top() float64
	// ingest takes the events peers sent this shard in the last window.
	ingest()
	// process runs every pending event before limit.
	process(limit float64)
	// fillSample writes the shard's share of one time-series sample.
	fillSample(at float64, s *TSample)
	// flush records the shard's counters into its telemetry shard.
	flush()
}

// windowCmd is one barrier phase instruction from the coordinator.
type windowCmd struct {
	process bool    // false: ingest; true: process the window
	limit   float64 // window end
}

// drive runs the workers to completion and returns how many windows it
// took. One worker runs inline. Several run concurrently in conservative
// windows: each round every worker first ingests the events its peers
// sent it, then processes the window [T, T+lookahead) from the earliest
// pending event T across all workers. An infinite lookahead (no
// cross-shard events) makes the first window the whole run.
func drive(ws []worker, lookahead float64) int64 {
	if len(ws) == 1 {
		ws[0].start()
		ws[0].process(math.Inf(1))
		return 0
	}
	cmds := make([]chan windowCmd, len(ws))
	acks := make(chan struct{}, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		cmds[i] = make(chan windowCmd)
		wg.Add(1)
		go func(w worker, cmd <-chan windowCmd) {
			defer wg.Done()
			w.start()
			for c := range cmd {
				if c.process {
					w.process(c.limit)
				} else {
					w.ingest()
				}
				acks <- struct{}{}
			}
		}(w, cmds[i])
	}
	barrier := func(c windowCmd) {
		for _, ch := range cmds {
			ch <- c
		}
		for range cmds {
			<-acks
		}
	}
	var rounds int64
	for {
		barrier(windowCmd{})
		T := math.Inf(1)
		for _, w := range ws {
			if t := w.top(); t < T {
				T = t
			}
		}
		if math.IsInf(T, 1) {
			break
		}
		barrier(windowCmd{process: true, limit: T + lookahead})
		rounds++
	}
	for _, ch := range cmds {
		close(ch)
	}
	wg.Wait()
	return rounds
}

// merge folds the finished shards back into one run and ends its span:
// the trailing time-series boundaries up to the last event of any shard
// (a shard whose events ended early still owes those samples, filled from
// its final state), the telemetry shards in worker order, the latency
// stream, traces and samples into the recorder in canonical order, and
// the heat shards into the run's sketch. It returns the merged latencies,
// their sum folded in the merged order — the same fold for every worker
// count, hence the same bits — and the time of the last event.
func (r *simRun) merge(ws []worker) (lat []float64, sum, lastAt float64, err error) {
	defer r.span.End()
	for _, w := range ws {
		if s := w.base(); s.lastAt > lastAt {
			lastAt = s.lastAt
		}
	}
	latBufs := make([][]latRec, len(ws))
	traceBufs := make([][]keyedTrace, len(ws))
	tsBufs := make([][]TSample, len(ws))
	total := 0
	for i, w := range ws {
		s := w.base()
		if s.ts != nil {
			s.ts.advance(lastAt, w.fillSample)
			tsBufs[i] = s.ts.samples
		}
		latBufs[i] = s.latBuf
		traceBufs[i] = s.traces
		total += len(s.latBuf)
		w.flush()
		s.sh.Merge()
	}
	lat = make([]float64, 0, total)
	kmerge(latBufs, latLess, func(l latRec) {
		lat = append(lat, l.lat)
		sum += l.lat
	})
	if r.rec != nil {
		var traced int64
		kmerge(traceBufs, traceLess, func(k keyedTrace) {
			r.rec.add(k.tr)
			traced++
		})
		obs.Count("netsim.traced_accesses", traced)
		mergeSamples(r.rec, tsBufs)
	}
	if r.sketch != nil {
		for _, w := range ws {
			if err := r.sketch.Merge(w.base().ht); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	return lat, sum, lastAt, nil
}
