package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"quorumplace/internal/check"
	"quorumplace/internal/daemon"
	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// The daemon workload drives a long-uptime control loop through the
// daemon's HTTP API, the handler cmd/quorumd serves, over one loopback
// keep-alive connection. Each op is one virtual epoch: POST /observe with
// the epoch's accesses, POST /tick, then GET /drift, /status and
// /ticks?last=16. A pass is one session of a fresh daemon over the same
// epochs; the hot client set rotates every few hundred epochs, so drift
// alerts fire and K-shard warm re-plan cycles run.

type daemonConfig struct {
	nodes, epochs, batch, rotate, hot int
	hotShare                          float64
}

type daemonBench struct {
	cfg     daemonConfig
	m       *graph.Metric
	caps    []float64
	sys     *quorum.System
	initial placement.Placement
	bodies  [][]byte // POST /observe body per epoch

	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	base    string
	client  *http.Client
	served  chan error

	d      *daemon.Daemon
	ins    *placement.Instance
	traced bool
	buf    bytes.Buffer

	// request latencies of untraced passes, in ms
	observeMS, tickMS, readMS []float64

	refTicks string // tick-log digest of the first pass
	refDelay float64
	refLoad  float64
	passes   int
}

func setupDaemon(seed int64, tiny bool) (bench, error) {
	cfg := daemonConfig{nodes: 24, epochs: 1500, batch: 32, rotate: 250, hot: 3, hotShare: 0.7}
	if tiny {
		cfg.epochs, cfg.rotate = 60, 20
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomGeometric(cfg.nodes, 0.4, rng)
	m, err := graph.BuildMetric(g)
	if err != nil {
		return nil, err
	}
	b := &daemonBench{cfg: cfg, m: m, sys: quorum.Grid(3)}
	b.caps = make([]float64, cfg.nodes)
	for v := range b.caps {
		b.caps[v] = 1.6
	}
	ins, err := b.newInstance()
	if err != nil {
		return nil, err
	}
	b.initial, err = placement.RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		return nil, err
	}
	b.bodies = genEpochs(rng, cfg, b.sys, b.initial)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*b.handler.Load()).ServeHTTP(w, r)
	})}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	// Run the first epochs on a scratch session, so the connection, the
	// handler and the heap are warm before timing starts.
	if err := b.beginPass(false); err != nil {
		b.close()
		return nil, err
	}
	for i := 0; i < min(warmEpochs, cfg.epochs); i++ {
		if err := b.op(i); err != nil {
			b.close()
			return nil, err
		}
	}
	b.observeMS, b.tickMS, b.readMS = nil, nil, nil
	return b, nil
}

const warmEpochs = 300

// genEpochs encodes every epoch's POST /observe body: batch accesses at
// virtual times inside the epoch, each from a hot client with probability
// hotShare (the hot set rotates every rotate epochs) or a uniform one
// otherwise, to a uniformly drawn quorum whose messages land on the nodes
// hosting its elements under the initial placement.
func genEpochs(rng *rand.Rand, cfg daemonConfig, sys *quorum.System, pl placement.Placement) [][]byte {
	type access struct {
		At     float64 `json:"at"`
		Client int     `json:"client"`
		Nodes  []int   `json:"nodes"`
	}
	bodies := make([][]byte, cfg.epochs)
	batch := make([]access, cfg.batch)
	for e := range bodies {
		first := (e / cfg.rotate) * cfg.hot
		for j := range batch {
			client := rng.Intn(cfg.nodes)
			if rng.Float64() < cfg.hotShare {
				client = (first + rng.Intn(cfg.hot)) % cfg.nodes
			}
			q := sys.Quorum(rng.Intn(sys.NumQuorums()))
			nodes := make([]int, len(q))
			for k, u := range q {
				nodes[k] = pl.Node(u)
			}
			batch[j] = access{At: float64(e) + (float64(j)+0.5)/float64(cfg.batch), Client: client, Nodes: nodes}
		}
		bodies[e], _ = json.Marshal(batch) // plain structs always marshal
	}
	return bodies
}

func (b *daemonBench) newInstance() (*placement.Instance, error) {
	return placement.NewInstance(b.m, b.caps, b.sys, quorum.Uniform(b.sys.NumQuorums()))
}

func (b *daemonBench) passLen() int { return b.cfg.epochs }

// beginPass starts a fresh daemon session behind the server.
func (b *daemonBench) beginPass(traced bool) error {
	ins, err := b.newInstance()
	if err != nil {
		return err
	}
	d, err := daemon.New(daemon.Config{Instance: ins, Initial: b.initial, Shards: 3, Lambda: 0.5})
	if err != nil {
		return err
	}
	h := d.Handler()
	b.handler.Store(&h)
	b.d, b.ins, b.traced = d, ins, traced
	return nil
}

func (b *daemonBench) op(i int) error {
	t0 := time.Now()
	if err := b.do(http.MethodPost, "/observe", b.bodies[i]); err != nil {
		return err
	}
	t1 := time.Now()
	if err := b.do(http.MethodPost, "/tick", nil); err != nil {
		return err
	}
	t2 := time.Now()
	if !b.traced {
		b.observeMS = append(b.observeMS, ms(t1.Sub(t0)))
		b.tickMS = append(b.tickMS, ms(t2.Sub(t1)))
	}
	for _, path := range []string{"/drift", "/status", "/ticks?last=16"} {
		t := time.Now()
		if err := b.do(http.MethodGet, path, nil); err != nil {
			return err
		}
		if !b.traced {
			b.readMS = append(b.readMS, ms(time.Since(t)))
		}
	}
	return nil
}

// do sends one request and reads the whole response into b.buf.
func (b *daemonBench) do(method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b.buf.Reset()
	if _, err := b.buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b.buf.Bytes()))
	}
	return nil
}

// endOp checks the last read, GET /ticks?last=16, returned this epoch's
// tick as its final record. Traced passes also time the drift read the
// tick and GET /drift perform, called directly.
func (b *daemonBench) endOp(i int) error {
	var ticks []daemon.TickRecord
	if err := json.Unmarshal(b.buf.Bytes(), &ticks); err != nil {
		return fmt.Errorf("GET /ticks: %w", err)
	}
	if len(ticks) == 0 || ticks[len(ticks)-1].Seq != i {
		return fmt.Errorf("GET /ticks: last record is not tick %d", i)
	}
	if b.traced {
		sp := obs.Start("heat.recent_drift")
		_, err := b.d.Drift()
		sp.End()
		return err
	}
	return nil
}

// endPass audits the session's final placement at the Theorem 5.1
// capacity factor and requires its tick log to repeat the first session's.
func (b *daemonBench) endPass() error {
	b.passes++
	pl := b.d.Placement()
	if err := check.AuditPlacement(b.ins, pl, 2); err != nil {
		return fmt.Errorf("daemon placement: %w", err)
	}
	ticks := b.d.Ticks()
	d := newDigest()
	var delays []float64
	for _, t := range ticks {
		rec, err := json.Marshal(t)
		if err != nil {
			return err
		}
		d.add(rec)
		delays = append(delays, t.AvgDelay)
	}
	d.ints(pl.Map()...)
	if b.refTicks == "" {
		b.refTicks, b.refDelay, b.refLoad = d.String(), mean(delays), loadFactor(b.ins, pl)
		return nil
	}
	if d.String() != b.refTicks {
		return fmt.Errorf("tick log differs from the first session")
	}
	return nil
}

func (b *daemonBench) passWork() float64 { return float64(b.cfg.epochs * b.cfg.batch) }

func (b *daemonBench) quality() (float64, float64) { return b.refDelay, b.refLoad }

func (b *daemonBench) digest() string { return b.refTicks }

func (b *daemonBench) summary() []string {
	n := len(b.tickMS)
	return []string{
		fmt.Sprintf("  tick_ms_p50=%.4f tick_ms_p99=%.4f observe_ms_p99=%.4f read_ms_p99=%.4f (n=%d, %d beyond p99)",
			quantile(b.tickMS, 0.5), quantile(b.tickMS, 0.99), quantile(b.observeMS, 0.99), quantile(b.readMS, 0.99),
			n, beyond(n, 0.99)),
		fmt.Sprintf("  daemon_avg_delay=%.6g epochs_per_session=%d sessions=%d", b.refDelay, b.cfg.epochs, b.passes),
	}
}

func (b *daemonBench) layerExtras() map[string]float64 {
	return map[string]float64{
		"heat.epochs":           float64(b.cfg.epochs),
		"daemon.tick_ms_p50":    quantile(b.tickMS, 0.5),
		"daemon.tick_ms_p99":    quantile(b.tickMS, 0.99),
		"daemon.observe_ms_p99": quantile(b.observeMS, 0.99),
		"daemon.read_ms_p99":    quantile(b.readMS, 0.99),
	}
}

// close stops the server and waits for it to exit.
func (b *daemonBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // a drain timeout leaves nothing for the caller to do
	<-b.served
	b.client.CloseIdleConnections()
}
