package netsim

import (
	"fmt"
	"math"

	"quorumplace/internal/heat"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
)

// Queueing simulation: the base simulator charges only propagation delay,
// which is the paper's cost model (Eq. 1). In a deployed system a node that
// is loaded near its capacity also queues requests, coupling the paper's
// two separate concerns — load and delay — into one number. This simulator
// adds FIFO service queues at the nodes: each quorum-element message is
// served at its hosting node with exponential service time, and the access
// completes when the last response returns. It demonstrates *why* the
// capacity constraints matter: placements that violate capacities see
// queueing delay blow up even though their propagation delay is optimal.
//
// The event loop is allocation-free once warm: events live in a value-typed
// binary heap (no container/heap interface boxing), per-access bookkeeping
// sits in one dense slice indexed by (client, access), and the per-node FIFO
// queues are index-linked lists over one shared message arena with a free
// list, so enqueue/dequeue recycle arena slots instead of growing and
// re-slicing per-node slices.
//
// Unlike the propagation-only simulators, queueing clients interact
// through the node FIFOs, so the shards cannot run to completion
// independently. Each shard owns a block of clients and the identically
// indexed block of nodes; messages between a client and a node in
// different shards become cross-shard events exchanged at barriers.
// Workers repeatedly process the window [T, T+L) of virtual time, where T
// is the minimum pending event time across shards and the lookahead L is
// the minimum client↔hosting-node distance over cross-shard pairs: an
// event processed at t ∈ [T, T+L) can only generate cross-shard events at
// t + D ≥ t + L ≥ T + L, outside the window, so every shard already holds
// all its events below T+L when the window opens and processes them in
// canonical order.

// QueueConfig describes a queueing simulation run.
type QueueConfig struct {
	Instance  *placement.Instance
	Placement placement.Placement
	// ArrivalRate is each client's Poisson access rate (accesses per time
	// unit, open loop).
	ArrivalRate float64
	// ServiceMean is the mean (exponential) service time per quorum-element
	// message at a capacity-1 node; node v serves with mean
	// ServiceMean/cap(v), so higher-capacity nodes are faster. Zero means
	// instantaneous service (pure propagation delay).
	ServiceMean       float64
	AccessesPerClient int
	Seed              int64
	// Recorder, when non-nil, captures per-access traces (with queue-wait
	// and service-time probe spans) and time-series samples; nil turns
	// tracing off.
	Recorder *Recorder
	// Heat, when non-nil, folds every access into the workload sketch at
	// its issue time (when the load lands on the node queues); nil turns
	// observation off.
	Heat *heat.Sketch
	// Workers is the number of worker shards, with the same contract as
	// Config.Workers: 0 runs one worker, and the conservative-window
	// output is bitwise invariant over the count. Responses propagate back
	// to the client as explicit events, so Clock covers the final
	// response's flight time.
	Workers int
}

// QueueStats is the outcome of a queueing simulation.
type QueueStats struct {
	Accesses    int
	AvgLatency  float64   // mean access latency incl. queueing and RTT propagation
	AvgWait     float64   // mean queueing wait per message (excl. service)
	Utilization []float64 // per-node busy fraction
	Clock       float64
}

// pendingMsg is a message waiting in or being served by a node queue. Slots
// live in one shared arena; next links them into per-node FIFO lists and,
// when free, into the arena's free list.
type pendingMsg struct {
	client, access int
	arrivedAt      float64
	slot           int // member slot within the access's quorum
	next           int // next message in the node FIFO / free list, -1 = none
}

// accessState tracks one in-flight access in a shard's dense (client,
// access) state table.
type accessState struct {
	remaining int
	issuedAt  float64 // the pre-drawn issue time, set by start
	lastResp  float64
	tr        *AccessTrace // non-nil when this access is traced
}

// RunQueueing executes the queueing simulation.
func RunQueueing(cfg QueueConfig) (*QueueStats, error) {
	ins := cfg.Instance
	if err := validateRun(ins, cfg.Placement, cfg.AccessesPerClient, cfg.Workers); err != nil {
		return nil, err
	}
	if err := checkFinite("ArrivalRate", cfg.ArrivalRate); err != nil {
		return nil, err
	}
	if err := checkFinite("ServiceMean", cfg.ServiceMean); err != nil {
		return nil, err
	}
	if cfg.ArrivalRate <= 0 {
		return nil, fmt.Errorf("netsim: ArrivalRate = %v, want > 0", cfg.ArrivalRate)
	}
	if cfg.ServiceMean < 0 {
		return nil, fmt.Errorf("netsim: negative ServiceMean %v", cfg.ServiceMean)
	}
	n := ins.M.N()
	serviceMean := make([]float64, n)
	for v := 0; v < n; v++ {
		if ins.Cap[v] > 0 {
			serviceMean[v] = cfg.ServiceMean / ins.Cap[v]
		}
	}
	W := clampWorkers(cfg.Workers, n)
	L := math.Inf(1)
	if W > 1 {
		L = queueLookahead(&cfg, n, W)
		if L <= 0 {
			// A zero-distance cross-shard pair admits no safe window. Fall
			// back to one shard: by partition independence the single-shard
			// run produces the same bits as any windowed run would.
			W = 1
			L = math.Inf(1)
		}
	}

	r := newSimRun("netsim.queueing", ins, cfg.Seed, cfg.Recorder, cfg.Heat)
	shards := r.partition(W, true)
	ws := make([]*queueWorker, W)
	all := make([]worker, W)
	for i, s := range shards {
		w := &queueWorker{
			shard: s, cfg: &cfg, W: W, serviceMean: serviceMean,
			clientStream: make([]prng, s.hi-s.lo),
			nodeStream:   make([]prng, s.hi-s.lo),
			states:       make([]accessState, (s.hi-s.lo)*cfg.AccessesPerClient),
			qHead:        make([]int, s.hi-s.lo),
			qTail:        make([]int, s.hi-s.lo),
			qLen:         make([]int, s.hi-s.lo),
			busy:         make([]bool, s.hi-s.lo),
			busyTime:     make([]float64, s.hi-s.lo),
			waitPerNode:  make([]float64, s.hi-s.lo),
			nodeHits:     make([]int64, n),
			outbox:       make([][]pqEvent, W),
		}
		w.latBuf = make([]latRec, 0, len(w.states))
		ws[i], all[i] = w, w
	}
	for _, w := range ws {
		w.peers = ws
	}
	obs.Count("netsim.pdes_rounds", drive(all, L))
	_, latencySum, lastAt, err := r.merge(all)
	if err != nil {
		return nil, err
	}

	stats := &QueueStats{Utilization: make([]float64, n), Clock: lastAt}
	var msgCount int
	for _, w := range ws {
		stats.Accesses += w.accesses
		msgCount += w.msgCount
	}
	// Per-node float accumulators fold in node index order — the same fold
	// for every partition.
	var waitSum float64
	for v := 0; v < n; v++ {
		w := ws[shardOfEntity(v, n, W)]
		waitSum += w.waitPerNode[v-w.lo]
	}
	if stats.Accesses > 0 {
		stats.AvgLatency = latencySum / float64(stats.Accesses)
	}
	if msgCount > 0 {
		stats.AvgWait = waitSum / float64(msgCount)
	}
	if stats.Clock > 0 {
		for v := 0; v < n; v++ {
			w := ws[shardOfEntity(v, n, W)]
			stats.Utilization[v] = w.busyTime[v-w.lo] / stats.Clock
		}
	}
	return stats, nil
}

// pqEvent is an event of the queueing simulator. It has no
// insertion-order seq: ties at equal virtual time break on the event
// identity (kind, client, access, node, slot), which is a total order —
// no two distinct events share all five — and is the same in every
// execution, which is what makes the windowed runs bitwise-reproducible.
// The response propagation back to the client (kind 3) is an explicit
// event so it can cross shards, carrying the probe's queue-wait and
// service time for the client-side trace.
type pqEvent struct {
	at        float64
	wait, svc float64 // kind 3: queue wait and service of the answered message
	kind      int     // 0 issue, 1 arrival, 2 service done, 3 response
	client    int
	access    int
	node      int
	slot      int // member slot within the access's quorum
}

func pqLess(a, b pqEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.client != b.client {
		return a.client < b.client
	}
	if a.access != b.access {
		return a.access < b.access
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.slot < b.slot
}

// pqHeap is a value-typed binary min-heap over the canonical event order.
type pqHeap []pqEvent

func (h *pqHeap) push(e pqEvent) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *pqHeap) pop() pqEvent {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && pqLess(q[l], q[m]) {
			m = l
		}
		if r < last && pqLess(q[r], q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// queueLookahead computes the conservative lookahead: the minimum
// distance, in either direction, between a client and a quorum-hosting
// node that live in different shards. Only hosting nodes receive or send
// messages, so the scan is O(n·|hosting|), not O(n²).
func queueLookahead(cfg *QueueConfig, n, W int) float64 {
	ins := cfg.Instance
	hosts := hostingNodes(cfg.Placement)
	L := math.Inf(1)
	for v := 0; v < n; v++ {
		sv := shardOfEntity(v, n, W)
		row := ins.M.Row(v)
		for _, h := range hosts {
			if shardOfEntity(h, n, W) == sv {
				continue
			}
			if d := row[h]; d < L {
				L = d
			}
			if d := ins.M.D(h, v); d < L {
				L = d
			}
		}
	}
	return L
}

// queueWorker is one shard of the windowed queueing engine, owning the
// clients and nodes in [lo, hi).
type queueWorker struct {
	shard
	cfg         *QueueConfig
	W           int
	serviceMean []float64
	peers       []*queueWorker

	h            pqHeap
	clientStream []prng
	nodeStream   []prng
	states       []accessState // owned clients × AccessesPerClient
	inFlight     int
	accesses     int
	events       int64

	// Per-node FIFO state (owned node range only).
	msgs         []pendingMsg
	freeMsg      int
	qHead, qTail []int
	qLen         []int
	busy         []bool
	busyTime     []float64
	waitPerNode  []float64
	msgCount     int
	maxNodeQueue int
	nodeHits     []int64

	// outbox[d] buffers events destined for shard d, handed over at the
	// next barrier.
	outbox [][]pqEvent
}

func (w *queueWorker) base() *shard { return &w.shard }

func (w *queueWorker) flush() {
	w.sh.Count("netsim.events", w.events)
	w.sh.GaugeMax("netsim.max_queue_depth", float64(w.maxNodeQueue))
}

// owner returns the shard that owns an event: node events (arrival,
// service) belong to the node's shard, client events (issue, response) to
// the client's.
func (w *queueWorker) owner(e *pqEvent) int {
	if e.kind == 1 || e.kind == 2 {
		return shardOfEntity(e.node, w.n, w.W)
	}
	return shardOfEntity(e.client, w.n, w.W)
}

// send routes an event to its owning shard: the local heap, or the
// outbox for delivery at the next barrier.
func (w *queueWorker) send(e pqEvent) {
	if d := w.owner(&e); d != w.id {
		w.outbox[d] = append(w.outbox[d], e)
		return
	}
	w.h.push(e)
}

// start precomputes the owned clients' Poisson issue schedules from their
// private streams into the access states' issue times, and initializes
// the node service streams. Only each client's first issue enters the
// heap; handling issue a pushes issue a+1. That is the pop order of
// pushing the whole schedule up front: issue a+1 sorts after issue a and
// is in the heap before anything after issue a pops, so the heap holds
// one pending issue per client instead of all of them.
func (w *queueWorker) start() {
	cfg := w.cfg
	for i := range w.clientStream {
		w.clientStream[i] = newPRNG(cfg.Seed, streamAccess, w.lo+i)
	}
	for i := range w.nodeStream {
		w.nodeStream[i] = newPRNG(cfg.Seed, streamService, w.lo+i)
	}
	for v := w.lo; v < w.hi; v++ {
		st := &w.clientStream[v-w.lo]
		issues := w.states[(v-w.lo)*cfg.AccessesPerClient:][:cfg.AccessesPerClient]
		t := 0.0
		for a := range issues {
			t += st.ExpFloat64() / cfg.ArrivalRate
			issues[a].issuedAt = t
		}
		w.h.push(pqEvent{at: issues[0].issuedAt, kind: 0, client: v, access: 0})
	}
	for v := w.lo; v < w.hi; v++ {
		w.qHead[v-w.lo], w.qTail[v-w.lo] = -1, -1
	}
	w.freeMsg = -1
}

// ingest drains every peer's outbox row for this shard into the local
// heap. Called inside a barrier phase: peers filled the rows during the
// previous process phase and will not touch them again until after this
// phase completes.
func (w *queueWorker) ingest() {
	for _, p := range w.peers {
		if p == w {
			continue
		}
		for _, e := range p.outbox[w.id] {
			w.h.push(e)
		}
	}
}

// top returns the time of the earliest pending local event, or +Inf.
func (w *queueWorker) top() float64 {
	if len(w.h) == 0 {
		return math.Inf(1)
	}
	return w.h[0].at
}

func (w *queueWorker) allocMsg(m pendingMsg) int {
	if i := w.freeMsg; i >= 0 {
		w.freeMsg = w.msgs[i].next
		w.msgs[i] = m
		return i
	}
	w.msgs = append(w.msgs, m)
	return len(w.msgs) - 1
}

func (w *queueWorker) enqueue(v int, m pendingMsg) {
	m.next = -1
	i := w.allocMsg(m)
	r := v - w.lo
	if w.qTail[r] < 0 {
		w.qHead[r] = i
	} else {
		w.msgs[w.qTail[r]].next = i
	}
	w.qTail[r] = i
	w.qLen[r]++
}

func (w *queueWorker) dequeue(v int) {
	r := v - w.lo
	i := w.qHead[r]
	w.qHead[r] = w.msgs[i].next
	if w.qHead[r] < 0 {
		w.qTail[r] = -1
	}
	w.qLen[r]--
	w.msgs[i].next = w.freeMsg
	w.freeMsg = i
}

func (w *queueWorker) startService(v int, now float64) {
	r := v - w.lo
	if w.busy[r] || w.qLen[r] == 0 {
		return
	}
	w.busy[r] = true
	msg := w.msgs[w.qHead[r]]
	wait := now - msg.arrivedAt
	w.waitPerNode[r] += wait
	w.msgCount++
	svc := 0.0
	if w.serviceMean[v] > 0 {
		svc = w.nodeStream[r].ExpFloat64() * w.serviceMean[v]
	}
	w.busyTime[r] += svc
	w.send(pqEvent{at: now + svc, wait: wait, svc: svc, kind: 2,
		client: msg.client, access: msg.access, node: v, slot: msg.slot})
}

// fillSample populates one time-series boundary with this shard's share
// of the gauges (own clients' in-flight/completed counts, own nodes' hit
// counts and queue depths); boundaries merge additively across shards.
func (w *queueWorker) fillSample(at float64, s *TSample) {
	s.InFlight = w.inFlight
	s.Accesses = w.accesses
	s.NodeHits = append([]int64(nil), w.nodeHits...)
	depth := make([]int, w.n)
	copy(depth[w.lo:w.hi], w.qLen)
	s.QueueDepth = depth
}

// process runs every pending local event with at < limit, buffering
// cross-shard sends. Within the window all of the shard's events below
// limit are present (the conservative-window invariant), so popping the
// canonical heap processes them in exactly the order a single global
// canonical heap would. The outbox rows peers drained in the last ingest
// phase are reused for this window's sends.
func (w *queueWorker) process(limit float64) {
	cfg := w.cfg
	ins := cfg.Instance
	for d := range w.outbox {
		w.outbox[d] = w.outbox[d][:0]
	}
	for len(w.h) > 0 && w.h[0].at < limit {
		e := w.h.pop()
		w.events++
		if w.ts != nil {
			w.ts.advance(e.at, w.fillSample)
		}
		w.lastAt = e.at
		switch e.kind {
		case 0: // client issues an access
			i := (e.client-w.lo)*cfg.AccessesPerClient + e.access
			st := &w.states[i]
			if e.access+1 < cfg.AccessesPerClient {
				w.h.push(pqEvent{at: w.states[i+1].issuedAt, kind: 0, client: e.client, access: e.access + 1})
			}
			cs := &w.clientStream[e.client-w.lo]
			qi := w.sampleQuorum(cs.Float64())
			row := ins.M.Row(e.client)
			q := ins.Sys.Quorum(qi)
			st.remaining = len(q)
			st.lastResp = 0
			w.inFlight++
			if w.traced(e.client, e.access) {
				st.tr = &AccessTrace{Run: w.runID, Client: e.client, Quorum: qi, Start: e.at}
				st.tr.Probes = make([]ProbeSpan, len(q))
			}
			w.accNodes = w.accNodes[:0]
			for slot, u := range q {
				node := cfg.Placement.Node(u)
				if st.tr != nil {
					st.tr.Probes[slot] = ProbeSpan{
						Member: u, Node: node, Dispatch: e.at,
						NetDelay: row[node] + ins.M.D(node, e.client),
					}
				}
				if w.accNodes != nil {
					w.accNodes = append(w.accNodes, node)
				}
				w.send(pqEvent{at: e.at + row[node], kind: 1,
					client: e.client, access: e.access, node: node, slot: slot})
			}
			if w.slo {
				w.rec.sloNodeHits(w.runID, e.at, w.accNodes)
			}
			if w.ht != nil {
				w.ht.Observe(e.at, e.client, w.accNodes)
			}
		case 1: // message arrives at an owned node's queue
			w.enqueue(e.node, pendingMsg{
				client: e.client, access: e.access, arrivedAt: e.at, slot: e.slot,
			})
			w.nodeHits[e.node]++
			if w.qLen[e.node-w.lo] > w.maxNodeQueue {
				w.maxNodeQueue = w.qLen[e.node-w.lo]
			}
			w.startService(e.node, e.at)
		case 2: // service completes; response propagates back to the client
			w.dequeue(e.node)
			w.busy[e.node-w.lo] = false
			w.startService(e.node, e.at)
			w.send(pqEvent{at: e.at + ins.M.D(e.node, e.client),
				wait: e.wait, svc: e.svc, kind: 3,
				client: e.client, access: e.access, node: e.node, slot: e.slot})
		case 3: // response reaches the client
			st := &w.states[(e.client-w.lo)*cfg.AccessesPerClient+e.access]
			st.remaining--
			if st.tr != nil {
				p := &st.tr.Probes[e.slot]
				p.QueueWait = e.wait
				p.Service = e.svc
				p.Complete = e.at
			}
			if e.at > st.lastResp {
				st.lastResp = e.at
			}
			if st.remaining == 0 {
				w.accesses++
				lat := st.lastResp - st.issuedAt
				w.latBuf = append(w.latBuf, latRec{at: st.lastResp, lat: lat, client: int32(e.client)})
				w.sh.Observe("netsim.access_latency", lat)
				if w.slo {
					w.rec.sloAccess(w.runID, st.lastResp, lat, 0, false, nil)
				}
				if st.tr != nil {
					st.tr.End = st.lastResp
					st.tr.Latency = lat
					markStraggler(st.tr.Mode, st.tr.Probes)
					w.traces = append(w.traces, keyedTrace{at: st.lastResp, client: e.client, access: e.access, tr: *st.tr})
					st.tr = nil
				}
				w.inFlight--
			}
		}
	}
}
