package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"quorumplace/internal/check"
	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func buildInstance(t *testing.T, seed int64) (*placement.Instance, placement.Placement) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 8
	g := graph.ErdosRenyiConnected(n, 0.4, 1, 4, rng)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Majority(4, 3)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1.6
	}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	old, err := placement.RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	return ins, old
}

func newDaemon(t *testing.T, seed int64, cfg Config) *Daemon {
	t.Helper()
	ins, old := buildInstance(t, seed)
	cfg.Instance, cfg.Initial = ins, old
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// auditPlacement fails the test unless the daemon's current placement keeps
// every node within twice its capacity, the Theorem 5.1 bound a re-plan's
// rounding guarantees. Tests run it after every tick.
func auditPlacement(t *testing.T, d *Daemon) {
	t.Helper()
	if err := check.AuditPlacement(d.ins, d.Placement(), 2); err != nil {
		t.Fatalf("after tick %d: %v", len(d.Ticks()), err)
	}
}

// tick runs one Tick and audits the placement it leaves.
func tick(t *testing.T, d *Daemon) TickRecord {
	t.Helper()
	rec, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	auditPlacement(t, d)
	return rec
}

// skewObserve pushes a deterministic hot-spot workload (clients 0 and 1) into
// the daemon so the live estimate drifts far from the uniform plan demand.
func skewObserve(d *Daemon, accesses int) {
	for i := 0; i < accesses; i++ {
		at := 0.1 * float64(i)
		d.Observe(at, i%2, []int{i % 4})
	}
}

// TestDaemonDeterministicReplay drives two identically-configured daemons
// through the same observation and tick sequence; the tick logs and final
// placements must be deeply equal (no wall-clock or map-order leakage).
func TestDaemonDeterministicReplay(t *testing.T) {
	run := func() ([]TickRecord, []int) {
		d := newDaemon(t, 42, Config{Shards: 3, Lambda: 0.5})
		for round := 0; round < 4; round++ {
			skewObserve(d, 30)
			tick(t, d)
		}
		// Fold in a run-local sketch, as the netsim pipeline does.
		local := heat.New(heat.Options{})
		for i := 0; i < 20; i++ {
			local.Observe(0.2*float64(i), i%3, []int{1})
		}
		if err := d.IngestSketch(local); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			tick(t, d)
		}
		return d.Ticks(), d.Placement().Map()
	}
	ticksA, placeA := run()
	ticksB, placeB := run()
	if !reflect.DeepEqual(ticksA, ticksB) {
		t.Fatalf("tick logs differ between identical runs:\n%v\n%v", ticksA, ticksB)
	}
	if !reflect.DeepEqual(placeA, placeB) {
		t.Fatalf("final placements differ: %v vs %v", placeA, placeB)
	}
}

// TestDaemonIdleWithoutDrift checks the solver stays idle while the plan is
// fresh: no observations (or an on-plan workload) must never trigger a
// re-plan.
func TestDaemonIdleWithoutDrift(t *testing.T) {
	d := newDaemon(t, 7, Config{Shards: 2, Lambda: 1})
	before := d.Placement().Map()
	for i := 0; i < 5; i++ {
		if rec := tick(t, d); rec.Alerted || rec.Shard != -1 || len(rec.Moves) != 0 {
			t.Fatalf("tick %d re-planned without drift: %+v", i, rec)
		}
	}
	if !reflect.DeepEqual(before, d.Placement().Map()) {
		t.Fatal("placement changed without any re-plan")
	}
}

// TestDaemonAlertCycle checks the drift alert arms a full K-shard re-plan
// cycle on its rising edge, and that completing the cycle re-bases the plan
// demand so the alert re-arms (drift against the new plan drops).
func TestDaemonAlertCycle(t *testing.T) {
	const k = 2
	d := newDaemon(t, 11, Config{Shards: k, Lambda: 0.25, DriftThreshold: 0.2})
	skewObserve(d, 200)

	rep, err := d.Drift()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TV < 0.2 || rep.LiveWeight < MinLiveWeight {
		t.Fatalf("fixture does not drift enough: TV=%v weight=%v", rep.TV, rep.LiveWeight)
	}

	// The cycle: exactly k consecutive re-planning ticks, round-robin shards.
	for i := 0; i < k; i++ {
		rec := tick(t, d)
		if !rec.Alerted && i == 0 {
			t.Fatalf("tick %d: alert did not trip (TV=%v)", i, rec.DriftTV)
		}
		if rec.Shard != i%k {
			t.Fatalf("tick %d re-planned shard %d, want %d", i, rec.Shard, i%k)
		}
	}

	// Cycle complete: plan demand is now the drifted target, so drift is
	// (near) zero and the next tick must not re-plan.
	rep, err = d.Drift()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TV >= 0.2 {
		t.Fatalf("drift did not re-base after cycle: TV=%v", rep.TV)
	}
	if rec := tick(t, d); rec.Alerted || rec.Shard != -1 {
		t.Fatalf("post-cycle tick still re-planning: %+v", rec)
	}
}

// TestDaemonIngestAdvancesClock checks IngestSketch shifts run-local epochs
// past the current base and advances the virtual clock.
func TestDaemonIngestAdvancesClock(t *testing.T) {
	d := newDaemon(t, 3, Config{Heat: heat.Options{EpochLen: 2}})
	if d.Now() != 0 {
		t.Fatalf("fresh daemon Now = %v", d.Now())
	}
	run := heat.New(heat.Options{EpochLen: 2})
	run.Observe(0.5, 0, []int{1}) // epoch 0
	run.Observe(7.0, 1, []int{2}) // epoch 3
	if err := d.IngestSketch(run); err != nil {
		t.Fatal(err)
	}
	// Base advanced past epoch 3 → 4 epochs × len 2.
	if got := d.Now(); got != 8 {
		t.Fatalf("Now = %v after ingest, want 8", got)
	}
	if err := d.IngestSketch(run); err != nil {
		t.Fatal(err)
	}
	if got := d.Now(); got != 16 {
		t.Fatalf("Now = %v after second ingest, want 16", got)
	}
	// Epoch-length mismatch is rejected.
	if err := d.IngestSketch(heat.New(heat.Options{EpochLen: 1})); err == nil {
		t.Fatal("mismatched epoch length accepted")
	}
}

// TestDaemonAlwaysReplanWarm checks steady-state repair mode reuses the LP
// basis after each shard's first solve, and ResetWarm forces cold again.
func TestDaemonAlwaysReplanWarm(t *testing.T) {
	const k = 2
	d := newDaemon(t, 13, Config{Shards: k, Lambda: 0.5, AlwaysReplan: true})
	skewObserve(d, 60)
	for i := 0; i < 2*k; i++ {
		rec := tick(t, d)
		wantWarm := i >= k // second visit of each shard
		if rec.Warm != wantWarm {
			t.Fatalf("tick %d warm=%v, want %v", i, rec.Warm, wantWarm)
		}
		if rec.LPBound <= 0 {
			t.Fatalf("tick %d has no LP bound: %+v", i, rec)
		}
	}
	d.ResetWarm()
	if rec := tick(t, d); rec.Warm {
		t.Fatal("tick after ResetWarm still reused a basis")
	}
}

// TestDaemonValidation covers Config rejection paths.
func TestDaemonValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	ins, old := buildInstance(t, 5)
	bad := []Config{
		{Instance: ins, Initial: old, Lambda: -1},
		{Instance: ins, Initial: old, PlanDemand: []float64{1, 2}},
		{Instance: ins, Initial: placement.NewPlacement([]int{99, 0, 0, 0})},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	d, err := New(Config{Instance: ins, Initial: old, Shards: 99})
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards() != ins.Sys.Universe() {
		t.Fatalf("shards not clamped to universe: %d", d.Shards())
	}
	if err := d.SetLambda(-2); err == nil {
		t.Fatal("negative lambda accepted by SetLambda")
	}
	if err := d.SetLambda(3); err != nil || d.Lambda() != 3 {
		t.Fatalf("SetLambda(3): err=%v lambda=%v", err, d.Lambda())
	}
}

// TestDaemonHTTP round-trips the control+status API over a real listener.
func TestDaemonHTTP(t *testing.T) {
	d := newDaemon(t, 21, Config{Shards: 2, Lambda: 0.5, AlwaysReplan: true})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := d.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	postJSON := func(path string, body any, into any) *http.Response {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
		}
		return resp
	}

	// Ingest a skewed workload over HTTP.
	obsBody := make([]observeReq, 0, 40)
	for i := 0; i < 40; i++ {
		obsBody = append(obsBody, observeReq{At: 0.1 * float64(i), Client: i % 2, Nodes: []int{i % 4}})
	}
	var ingested map[string]int
	if resp := postJSON("/observe", obsBody, &ingested); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /observe: %s", resp.Status)
	}
	if ingested["ingested"] != 40 {
		t.Fatalf("ingested %d, want 40", ingested["ingested"])
	}

	// Drive a tick and read it back.
	var rec TickRecord
	if resp := postJSON("/tick", nil, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /tick: %s", resp.Status)
	}
	auditPlacement(t, d)
	if rec.Seq != 0 || rec.Shard != 0 {
		t.Fatalf("first tick over HTTP: %+v", rec)
	}

	var st Status
	getJSON("/status", &st)
	if st.Ticks != 1 || st.Shards != 2 || st.Lambda != 0.5 {
		t.Fatalf("status: %+v", st)
	}
	if st.LastTickSeconds <= 0 {
		t.Fatalf("status has no tick latency: %+v", st)
	}

	var pd PlacementDoc
	getJSON("/placement", &pd)
	if !reflect.DeepEqual(pd.Nodes, d.Placement().Map()) {
		t.Fatalf("placement doc %v != %v", pd.Nodes, d.Placement().Map())
	}

	var drift heat.DriftReport
	getJSON("/drift", &drift)
	if drift.LiveWeight <= 0 {
		t.Fatalf("drift report empty after ingest: %+v", drift)
	}

	var ticks []TickRecord
	getJSON("/ticks", &ticks)
	if len(ticks) != 1 || !reflect.DeepEqual(ticks[0].Moves, rec.Moves) {
		t.Fatalf("ticks doc: %+v", ticks)
	}
	postJSON("/tick", nil, nil)
	auditPlacement(t, d)
	getJSON("/ticks?last=1", &ticks)
	if len(ticks) != 1 || ticks[0].Seq != 1 {
		t.Fatalf("ticks?last=1: %+v", ticks)
	}

	var lam map[string]float64
	if resp := postJSON("/lambda", map[string]float64{"lambda": 2}, &lam); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /lambda: %s", resp.Status)
	}
	if d.Lambda() != 2 {
		t.Fatalf("lambda not applied: %v", d.Lambda())
	}
	if resp := postJSON("/lambda", map[string]float64{"lambda": -1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative lambda over HTTP: %s", resp.Status)
	}

	// Wrong methods are rejected.
	if resp, err := http.Get(base + "/tick"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /tick: %s", resp.Status)
		}
	}
	if resp := postJSON("/status", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /status: %s", resp.Status)
	}
}

// TestObserveRejectsHostileInput pins the /observe boundary: the sketch
// grows its dense counters to the largest index it sees, so one 44-byte
// request naming client 2²⁴ used to allocate hundreds of megabytes. Any bad
// entry now rejects the whole batch with 400 before anything is ingested,
// and oversized bodies are cut off.
func TestObserveRejectsHostileInput(t *testing.T) {
	d := newDaemon(t, 21, Config{Shards: 2, Lambda: 0.5})
	h := d.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w
	}
	if w := post("/observe", `[{"at":0.5,"client":1,"nodes":[0,3]}]`); w.Code != http.StatusOK {
		t.Fatalf("valid batch: %d %s", w.Code, w.Body)
	}
	before := len(d.sketch.ClientTotals())
	for _, tc := range []struct{ body, entry string }{
		{`[{"at":0.5,"client":16777216,"nodes":[0]}]`, "entry 0: client 16777216"},
		{`[{"at":0.5,"client":1,"nodes":[0]},{"at":0.5,"client":-1,"nodes":[0]}]`, "entry 1: client -1"},
		{`[{"at":0.5,"client":1,"nodes":[0,8]}]`, "entry 0: node 8"},
		{`[{"at":0.5,"client":1,"nodes":[-2]}]`, "entry 0: node -2"},
		{`[{"at":1e308,"client":1,"nodes":[0]}]`, "entry 0: at = 1e+308"},
		{`[{"at":-1,"client":1,"nodes":[0]}]`, "entry 0: at = -1"},
	} {
		w := post("/observe", tc.body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.entry) {
			t.Errorf("POST /observe %s: %d %q, want 400 naming %q", tc.body, w.Code, w.Body, tc.entry)
		}
	}
	if got := len(d.sketch.ClientTotals()); got != before {
		t.Fatalf("rejected batches grew the client totals from %d to %d", before, got)
	}
	if got := d.sketch.Accesses(); got != 1 {
		t.Fatalf("rejected batches ingested accesses: %d, want 1", got)
	}
	// An entry more than the heat window (64 epochs by default) behind the
	// newest epoch could land in an epoch a read has sealed: the batch is
	// refused whole, its in-window first entry included.
	if w := post("/observe", `[{"at":100.5,"client":1,"nodes":[0]}]`); w.Code != http.StatusOK {
		t.Fatalf("valid batch: %d %s", w.Code, w.Body)
	}
	stale := `[{"at":101.5,"client":1,"nodes":[0]},{"at":30.5,"client":1,"nodes":[0]}]`
	if w := post("/observe", stale); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "entry 1: at = 30.5") {
		t.Errorf("POST /observe %s: %d %q, want 400 naming entry 1", stale, w.Code, w.Body)
	}
	if got := d.sketch.Accesses(); got != 2 {
		t.Fatalf("a batch with a stale entry ingested accesses: %d, want 2", got)
	}
	// Bodies past the limit are rejected before they are decoded in full.
	huge := strings.Repeat(" ", 2<<20)
	if w := post("/observe", huge+"[]"); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized /observe body: %d", w.Code)
	}
	if w := post("/lambda", huge+`{"lambda":1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized /lambda body: %d", w.Code)
	}
}

// TestObserveWindowMatchesSketch pins the daemon's window to the sketch's:
// after a read, an /observe entry exactly W epochs behind the newest epoch
// is accepted and counted in the rates, and one a further epoch back is
// refused, because the read sealed its epoch.
func TestObserveWindowMatchesSketch(t *testing.T) {
	for _, hl := range []float64{0, 1, 2.5} {
		d := newDaemon(t, 21, Config{Heat: heat.Options{HalfLife: hl}})
		w := d.sketch.Window()
		newest := 3 * w
		if err := d.observeBatch([]observeReq{{At: float64(newest) + 0.5, Client: 1}}); err != nil {
			t.Fatal(err)
		}
		tick(t, d) // a rate read: seals every epoch before newest−W
		edge := []observeReq{{At: float64(newest-w) + 0.5, Client: 0}}
		if err := d.observeBatch(edge); err != nil {
			t.Fatalf("half-life %v: entry W = %d epochs back refused: %v", hl, w, err)
		}
		if d.sketch.Late() != 0 || d.sketch.ClientRates()[0] == 0 {
			t.Fatalf("half-life %v: the entry W epochs back missed the rates", hl)
		}
		if err := d.observeBatch([]observeReq{{At: float64(newest-w) - 0.5, Client: 0}}); err == nil {
			t.Fatalf("half-life %v: entry W+1 epochs back accepted", hl)
		}
		d.sketch.Observe(float64(newest-w)-0.5, 0, nil)
		if d.sketch.Late() != 1 {
			t.Fatalf("half-life %v: the epoch W+1 back is not sealed; the daemon's window is off", hl)
		}
	}
}

// TestTickLogRing checks the tick log keeps the newest maxTicks records in
// order while Seq and Status.Ticks keep counting, and that GET /ticks
// parses ?last= strictly.
func TestTickLogRing(t *testing.T) {
	d := newDaemon(t, 5, Config{Shards: 2, Lambda: 0.5})
	const total = 5000
	for i := 0; i < total; i++ {
		if _, err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	ticks := d.Ticks()
	if len(ticks) != maxTicks {
		t.Fatalf("%d records retained, want %d", len(ticks), maxTicks)
	}
	for i, rec := range ticks {
		if want := total - maxTicks + i; rec.Seq != want {
			t.Fatalf("record %d has Seq %d, want %d", i, rec.Seq, want)
		}
	}
	if st := d.Status(); st.Ticks != total {
		t.Fatalf("status counts %d ticks, want %d", st.Ticks, total)
	}
	if cap(d.ticks) != maxTicks {
		t.Fatalf("ring capacity %d, want %d", cap(d.ticks), maxTicks)
	}

	h := d.Handler()
	get := func(query string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/ticks"+query, nil))
		return w
	}
	for _, n := range []int{0, 1, 16, maxTicks, total} {
		w := get("?last=" + strconv.Itoa(n))
		var got []TickRecord
		if err := json.Unmarshal(w.Body.Bytes(), &got); w.Code != http.StatusOK || err != nil {
			t.Fatalf("GET /ticks?last=%d: %d %v", n, w.Code, err)
		}
		want := ticks[len(ticks)-min(n, maxTicks):]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GET /ticks?last=%d: %d records, want the newest %d", n, len(got), len(want))
		}
	}
	for _, q := range []string{"?last=16abc", "?last=-1", "?last=1.5", "?last=+"} {
		if w := get(q); w.Code != http.StatusBadRequest {
			t.Errorf("GET /ticks%s: %d, want 400", q, w.Code)
		}
	}
}
