package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"quorumplace/internal/obs/export"
)

// Status is the GET /status document: a control-plane summary of the
// daemon's live state.
type Status struct {
	Shards          int     `json:"shards"`
	NextShard       int     `json:"next_shard"`
	Lambda          float64 `json:"lambda"`
	Ticks           int     `json:"ticks"` // every tick since start-up, retained or not
	Now             float64 `json:"now"`   // virtual time
	DriftTV         float64 `json:"drift_tv"`
	LiveWeight      float64 `json:"live_weight"`
	PendingShards   int     `json:"pending_shards"` // shards left in the active re-plan cycle
	LastTickSeconds float64 `json:"last_tick_seconds"`
	AvgDelay        float64 `json:"avg_delay"` // from the latest tick, 0 before the first
}

// PlacementDoc is the GET /placement document.
type PlacementDoc struct {
	Nodes []int `json:"nodes"` // element → node
}

// maxBodyBytes bounds every POST body. An /observe batch is one epoch's
// accesses at about 50 bytes each, so a megabyte leaves ample room.
const maxBodyBytes = 1 << 20

// observeReq is one POST /observe body entry.
type observeReq struct {
	At     float64 `json:"at"`
	Client int     `json:"client"`
	Nodes  []int   `json:"nodes"`
}

// Status assembles the control-plane summary.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{
		Shards:          len(d.shards),
		NextShard:       d.next,
		Lambda:          d.lambda,
		Ticks:           d.nticks,
		Now:             d.now(),
		PendingShards:   d.cycleLeft,
		LastTickSeconds: d.lastTickSec,
	}
	if rep, err := d.sketch.RecentDrift(d.planDemand); err == nil {
		st.DriftTV, st.LiveWeight = rep.TV, rep.LiveWeight
	}
	if d.nticks > 0 {
		st.AvgDelay = d.ticks[(d.nticks-1)%maxTicks].AvgDelay
	}
	return st
}

// Handler returns the daemon's HTTP control+status API:
//
//	GET  /status     control-plane summary (Status)
//	GET  /placement  current placement (PlacementDoc)
//	GET  /drift      recent-drift report (heat.DriftReport)
//	GET  /ticks      retained tick log ([]TickRecord, the newest 4096),
//	                 ?last=N for the newest N
//	POST /tick       run one tick, respond with its TickRecord
//	POST /lambda     {"lambda": x} retune the movement weight
//	POST /observe    [{"at":t,"client":u,"nodes":[...]}, ...] ingest accesses;
//	                 400 and nothing ingested if any index is outside the
//	                 instance, any time is negative or out of epoch range,
//	                 or any time is older than the heat window
//	GET  /metrics    Prometheus text exposition (internal/obs/export)
//	GET  /metrics.json
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", export.Handler(export.ActiveSource()))
	mux.Handle("/metrics.json", export.Handler(export.ActiveSource()))

	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, d.Status())
	})
	mux.HandleFunc("/placement", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, PlacementDoc{Nodes: d.Placement().Map()})
	})
	mux.HandleFunc("/drift", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		rep, err := d.Drift()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/ticks", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		n := maxTicks
		if s := r.URL.Query().Get("last"); s != "" {
			var err error
			if n, err = strconv.Atoi(s); err != nil || n < 0 {
				http.Error(w, "last must be a non-negative integer", http.StatusBadRequest)
				return
			}
		}
		writeJSON(w, d.lastTicks(n))
	})
	mux.HandleFunc("/tick", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodPost) {
			return
		}
		rec, err := d.Tick()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rec)
	})
	mux.HandleFunc("/lambda", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodPost) {
			return
		}
		var body struct {
			Lambda float64 `json:"lambda"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
			http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := d.SetLambda(body.Lambda); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]float64{"lambda": body.Lambda})
	})
	mux.HandleFunc("/observe", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodPost) {
			return
		}
		var body []observeReq
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
			http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := d.observeBatch(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]int{"ingested": len(body)})
	})
	return mux
}

// observeBatch validates a whole /observe batch against the instance, then
// ingests it; a batch with a bad entry ingests nothing. The sketch grows its
// dense counters to the largest client or node index it sees, so an
// unchecked index allocates as much as the sender asks for, and a time
// whose epoch index passes int64 would overflow it. An entry more than the
// sketch's window behind its newest epoch could land in an epoch a rate
// read has sealed, where it would be left out of the rates. Validation and
// ingest hold d.mu, as every rate read does, so no read seals an epoch in
// between.
func (d *Daemon) observeBatch(batch []observeReq) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.ins.M.N()
	base, window := d.now(), d.sketch.Window()
	newest, seen := d.sketch.MaxEpoch()
	for i, o := range batch {
		if o.Client < 0 || o.Client >= n {
			return fmt.Errorf("entry %d: client %d outside [0, %d)", i, o.Client, n)
		}
		for _, v := range o.Nodes {
			if v < 0 || v >= n {
				return fmt.Errorf("entry %d: node %d outside [0, %d)", i, v, n)
			}
		}
		// Written so that NaN, which fails every comparison, is rejected.
		e, ok := d.sketch.Epoch(base + o.At)
		if !(o.At >= 0) || !ok {
			return fmt.Errorf("entry %d: at = %v must be finite, non-negative and within the int64 epoch range", i, o.At)
		}
		if seen && e < newest-window {
			return fmt.Errorf("entry %d: at = %v falls in epoch %d, more than %d epochs behind the newest epoch %d",
				i, o.At, e, window, newest)
		}
	}
	for _, o := range batch {
		d.sketch.Observe(base+o.At, o.Client, o.Nodes)
	}
	return nil
}

// Serve binds addr (port 0 picks a free port) and serves the control API
// until the returned server is closed or ctx is cancelled. The underlying
// export.Server drains in-flight requests on Close.
func (d *Daemon) Serve(ctx context.Context, addr string) (*export.Server, error) {
	return export.ServeHandler(ctx, addr, d.Handler())
}

func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
