package netsim

import "math"

// The propagation worker: the per-access step of Run and RunWithFailures.
// Clients never interact when only propagation delay is charged — an
// access touches its own client's timeline plus commutative integer
// aggregates — so the lookahead is unbounded and the workers run
// barrier-free to completion, merging once at the end. Run is
// RunWithFailures with the failure model off (no crashes, no retries)
// plus an optional think time between a client's accesses; with the
// failure model off the crash/retry path consumes no randomness, so the
// two simulators reproduce each other draw for draw.

// propWorker is the per-shard state of one propagation run.
type propWorker struct {
	shard
	cfg      *FailureConfig
	think    float64 // mean think time between a client's accesses
	failures bool    // RunWithFailures: report retries rather than messages
	counts   []int   // per-client access counts, nil for uniform rates

	q          eventQueue
	streams    []prng // one per owned client
	hosts      []int  // hosting nodes, ascending; shared by the run's workers
	alive      []bool // crash state of the current access (hosts only), nil without failures
	events     int64
	maxDepth   int
	accesses   int
	succeeded  int
	aborted    int
	retries    int64
	crashDraws int64 // crash states peeked, one per hosting node per access
	noLive     int   // accesses whose crash state left no quorum alive
	messages   int64
	clock      float64
	nodeHits   []int64
	perClient  []float64 // owned range only
	perClientN []int
}

// propagate runs the propagation worker over cfg, with think the mean
// think time between a client's accesses (0 = back-to-back), and returns
// the finished workers with the run's merged latency stream and its sum.
// failures selects RunWithFailures' span and counters; Run alone samples
// the recorder's time series.
func propagate(cfg *FailureConfig, think float64, failures bool) ([]*propWorker, []float64, float64, error) {
	ins := cfg.Instance
	span := "netsim.run"
	if failures {
		span = "netsim.failures"
	}
	r := newSimRun(span, ins, cfg.Seed, cfg.Recorder, cfg.Heat)
	var counts []int
	if ins.Rates != nil {
		counts = clientAccessCounts(ins.Rates, r.n, cfg.AccessesPerClient)
	}
	shards := r.partition(clampWorkers(cfg.Workers, r.n), !failures)
	// The host list and every worker's crash-state row are allocated once
	// per run; a cache line of padding between rows keeps two workers from
	// writing to one line.
	var hosts []int
	var alive []bool
	stride := r.n + 64
	if cfg.NodeFailureProb != 0 {
		hosts = hostingNodes(cfg.Placement)
		alive = make([]bool, len(shards)*stride)
	}
	ws := make([]*propWorker, len(shards))
	all := make([]worker, len(shards))
	for i, s := range shards {
		w := &propWorker{
			shard: s, cfg: cfg, think: think, failures: failures, counts: counts, hosts: hosts,
			streams:    make([]prng, s.hi-s.lo),
			nodeHits:   make([]int64, r.n),
			perClient:  make([]float64, s.hi-s.lo),
			perClientN: make([]int, s.hi-s.lo),
		}
		if alive != nil {
			w.alive = alive[i*stride : i*stride+r.n]
		}
		// Exact for uniform rates; rated runs grow from there.
		w.latBuf = make([]latRec, 0, (s.hi-s.lo)*cfg.AccessesPerClient)
		ws[i], all[i] = w, w
	}
	drive(all, math.Inf(1))
	lat, sum, _, err := r.merge(all)
	return ws, lat, sum, err
}

func (w *propWorker) base() *shard { return &w.shard }

func (w *propWorker) start() {
	for i := range w.streams {
		w.streams[i] = newPRNG(w.cfg.Seed, streamAccess, w.lo+i)
	}
	// seq = client index: one pending event per client, so (at, client) is
	// the canonical total order and eventQueue's (at, seq) heap implements it.
	for v := w.lo; v < w.hi; v++ {
		if w.counts != nil && w.counts[v] == 0 {
			continue
		}
		w.q.push(event{at: 0, seq: v, client: v, access: 0})
	}
}

func (w *propWorker) top() float64 {
	if len(w.q) == 0 {
		return math.Inf(1)
	}
	return w.q[0].at
}

// ingest has nothing to take: no event ever crosses shards.
func (w *propWorker) ingest() {}

// fillSample populates one time-series boundary with this shard's share of
// the gauges; boundary samples merge additively across shards.
func (w *propWorker) fillSample(at float64, s *TSample) {
	w.ts.done.popTo(at)
	s.InFlight = len(w.ts.done)
	s.Accesses = w.accesses
	s.NodeHits = append([]int64(nil), w.nodeHits...)
}

func (w *propWorker) flush() {
	w.sh.Count("netsim.events", w.events)
	if w.failures {
		w.sh.Count("netsim.retries", w.retries)
		w.sh.Count("netsim.crash_draws", w.crashDraws)
		return
	}
	w.sh.Count("netsim.messages", w.messages)
	w.sh.GaugeMax("netsim.max_queue_depth", float64(w.maxDepth))
}

// process runs the shard to completion. The lookahead is unbounded, so
// the only window is the whole run and limit is always +Inf.
func (w *propWorker) process(float64) {
	cfg := w.cfg
	ins := cfg.Instance
	collectNodes := w.accNodes != nil
	alive := w.alive
	for len(w.q) > 0 {
		if len(w.q) > w.maxDepth {
			w.maxDepth = len(w.q)
		}
		e := w.q.pop()
		w.events++
		if w.ts != nil {
			w.ts.advance(e.at, w.fillSample)
		}
		w.lastAt = e.at
		v := e.client
		st := &w.streams[v-w.lo]
		row := ins.M.Row(v)
		// Crash state for this access epoch, drawn from the client stream:
		// the access's view of the world depends only on (seed, client,
		// access), never on how accesses interleave globally. Node i's
		// state is the stream's (i+1)-th next draw, as if all n were drawn
		// in node order. Only hosting nodes are ever read, so only theirs
		// are computed, and the stream then jumps past all n draws. When no
		// host is down every quorum is alive.
		if alive != nil {
			down := false
			for _, h := range w.hosts {
				alive[h] = unitFloat(st.peek(h+1)) >= cfg.NodeFailureProb
				w.crashDraws++
				down = down || !alive[h]
			}
			st.skip(w.n)
			if down && !anyQuorumAlive(ins, cfg.Placement, alive) {
				w.noLive++
			}
		}
		w.accesses++
		var tr *AccessTrace
		if w.traced(v, e.access) {
			tr = &AccessTrace{Run: w.runID, Client: v, Mode: cfg.Mode, Start: e.at}
		}
		penalty := 0.0
		elapsed := 0.0 // virtual time the access occupies on the client
		success := false
		var accRetries int64
		w.accNodes = w.accNodes[:0]
		for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
			qi := w.sampleQuorum(st.Float64())
			quorum := ins.Sys.Quorum(qi)
			attemptStart := e.at + penalty
			attemptProbes := 0
			if tr != nil {
				if tr.Probes == nil {
					tr.Probes = make([]ProbeSpan, 0, len(quorum))
				}
				attemptProbes = len(tr.Probes)
			}
			ok := true
			var latency float64
			for _, u := range quorum {
				node := cfg.Placement.Node(u)
				if collectNodes {
					w.accNodes = append(w.accNodes, node)
				}
				if alive != nil && !alive[node] {
					if tr != nil {
						// The failing probe is dispatched after the latency
						// already accumulated in this attempt (Sequential
						// probes go out one after another; Parallel probes
						// all leave at the attempt start).
						dispatch := attemptStart
						if cfg.Mode == Sequential {
							dispatch += latency
						}
						tr.Probes = append(tr.Probes, ProbeSpan{
							Member: u, Node: node, Dispatch: dispatch,
							Complete: dispatch, Failed: true,
						})
					}
					ok = false
					break
				}
				d := row[node]
				w.nodeHits[node]++
				w.messages++
				if tr != nil {
					dispatch := attemptStart
					if cfg.Mode == Sequential {
						dispatch += latency
					}
					tr.Probes = append(tr.Probes, ProbeSpan{
						Member: u, Node: node,
						Dispatch: dispatch, NetDelay: d, Complete: dispatch + d,
					})
				}
				if cfg.Mode == Parallel {
					if d > latency {
						latency = d
					}
				} else {
					latency += d
				}
			}
			if ok {
				w.succeeded++
				success = true
				elapsed = latency + penalty
				w.latBuf = append(w.latBuf, latRec{at: e.at, lat: elapsed, client: int32(v)})
				w.perClient[v-w.lo] += elapsed
				w.perClientN[v-w.lo]++
				if tr != nil {
					tr.Quorum = qi
					tr.Attempts = attempt
					tr.Latency = elapsed
					tr.End = tr.Start + tr.Latency
					markStraggler(cfg.Mode, tr.Probes[attemptProbes:])
				}
				break
			}
			// Every failed attempt is charged its timeout, including the
			// final attempt of an access that exhausts the retry budget.
			penalty += cfg.RetryPenalty
			if attempt < cfg.MaxRetries {
				w.retries++
				accRetries++
			}
		}
		if success {
			w.sh.Observe("netsim.access_latency", elapsed)
		} else {
			w.aborted++
			elapsed = penalty
			if tr != nil {
				tr.Attempts = cfg.MaxRetries + 1
				tr.Aborted = true
				tr.Latency = penalty
				tr.End = tr.Start + penalty
			}
		}
		done := e.at + elapsed
		if done > w.clock {
			w.clock = done
		}
		if w.slo {
			w.rec.sloAccess(w.runID, done, elapsed, accRetries, !success, w.accNodes)
		}
		if w.ht != nil {
			w.ht.Observe(e.at, v, w.accNodes)
		}
		if tr != nil {
			w.traces = append(w.traces, keyedTrace{at: e.at, client: v, access: e.access, tr: *tr})
		}
		if w.ts != nil {
			w.ts.done.push(done)
		}
		limit := cfg.AccessesPerClient
		if w.counts != nil {
			limit = w.counts[v]
		}
		if e.access+1 < limit {
			next := done
			if w.think > 0 {
				next += st.ExpFloat64() * w.think
			}
			w.q.push(event{at: next, seq: v, client: v, access: e.access + 1})
		}
	}
}
