// Command quorumd runs the placement daemon (internal/daemon) as a
// standalone service over a synthesized deployment, or drives a running
// daemon as a client.
//
// Server mode synthesizes a random geometric network with a grid quorum
// system, solves the initial placement for uniform demand, and then drives
// the daemon control loop through a drift ramp: each tick ingests a batch
// of accesses whose client mix shifts from uniform toward a concentrated
// hot set, then runs one daemon tick. The per-tick log (drift TV, alert
// state, re-planned shard, warm/cold, moves, predicted delay) goes to
// stdout; with -addr the daemon's HTTP control+status API (plus /metrics)
// is served while the loop runs, and -hold keeps it up afterwards.
// /metrics exposes the process telemetry collector, installed while the
// server runs. That collector keeps every span it records, so its memory
// and the cost of a scrape grow with the ticks served. Runs
// are seeded (-seed) and the tick log carries no wall-clock state, so two
// runs with the same flags produce identical stdout.
//
// Client mode (-target URL) talks to a serving daemon:
//
//	quorumd -target http://host:port -inspect        GET /status and /drift
//	quorumd -target http://host:port -apply          POST /tick, print the record
//	quorumd -target http://host:port -set-lambda 2   POST /lambda
//
// Usage:
//
//	quorumd [-nodes 12] [-grid 3] [-seed 1] [-shards 2] [-lambda 0.5]
//	        [-drift-threshold 0.1] [-always-replan]
//	        [-ticks 12] [-accesses 200] [-ramp 0.5] [-hot 3]
//	        [-addr 127.0.0.1:0 [-hold 30s]]
//	quorumd -target URL (-inspect | -apply | -set-lambda λ)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"text/tabwriter"
	"time"

	qp "quorumplace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "quorumd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("quorumd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	nodes := fs.Int("nodes", 12, "network size (server mode)")
	gridK := fs.Int("grid", 3, "grid quorum system side (universe k²)")
	seed := fs.Int64("seed", 1, "deterministic seed")
	shards := fs.Int("shards", 2, "placement shards re-solved round-robin")
	lambda := fs.Float64("lambda", 0.5, "movement weight λ of each incremental re-plan")
	driftThreshold := fs.Float64("drift-threshold", 0, "drift TV that arms re-planning (0 = default)")
	alwaysReplan := fs.Bool("always-replan", false, "re-solve one shard every tick regardless of drift")
	ticks := fs.Int("ticks", 12, "control-loop ticks to run")
	accesses := fs.Int("accesses", 200, "accesses ingested per tick")
	ramp := fs.Float64("ramp", 0.5, "fraction of ticks over which demand ramps to the hot set")
	hot := fs.Int("hot", 0, "hot-set size (0 = nodes/4)")
	addr := fs.String("addr", "", "serve the HTTP control API on this address (port 0 picks a free port)")
	hold := fs.Duration("hold", 0, "keep the HTTP endpoint up this long after the tick loop")

	target := fs.String("target", "", "client mode: base URL of a serving quorumd")
	inspect := fs.Bool("inspect", false, "client: print the daemon's status and drift report")
	apply := fs.Bool("apply", false, "client: run one tick and print its record")
	setLambda := fs.String("set-lambda", "", "client: retune the daemon's movement weight")

	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *target != "" {
		return runClient(*target, *inspect, *apply, *setLambda, stdout)
	}
	if *inspect || *apply || *setLambda != "" {
		return fmt.Errorf("-inspect/-apply/-set-lambda require -target")
	}
	if *ticks < 1 {
		return fmt.Errorf("-ticks must be at least 1")
	}
	if *accesses < 0 {
		return fmt.Errorf("-accesses must be non-negative")
	}
	if *ramp < 0 || *ramp > 1 {
		return fmt.Errorf("-ramp must be in [0, 1]")
	}

	return runServer(serverConfig{
		nodes: *nodes, gridK: *gridK, seed: *seed,
		shards: *shards, lambda: *lambda, driftThreshold: *driftThreshold,
		alwaysReplan: *alwaysReplan,
		ticks:        *ticks, accesses: *accesses, ramp: *ramp, hot: *hot,
		addr: *addr, hold: *hold,
	}, stdout, stderr)
}

type serverConfig struct {
	nodes, gridK   int
	seed           int64
	shards         int
	lambda         float64
	driftThreshold float64
	alwaysReplan   bool
	ticks          int
	accesses       int
	ramp           float64
	hot            int
	addr           string
	hold           time.Duration
}

func runServer(c serverConfig, stdout, stderr io.Writer) error {
	sys, err := qp.ParseSystem(fmt.Sprintf("grid:%d", c.gridK))
	if err != nil {
		return err
	}
	if c.nodes < sys.Universe() {
		return fmt.Errorf("%d nodes cannot host a %s system (universe %d)", c.nodes, sys.Name(), sys.Universe())
	}
	rng := rand.New(rand.NewSource(c.seed))
	g := qp.RandomGeometric(c.nodes, 0.6, rng)
	m, err := qp.NewMetricFromGraph(g)
	if err != nil {
		return err
	}
	caps := make([]float64, c.nodes)
	for i := range caps {
		caps[i] = 1.6
	}
	ins, err := qp.NewInstance(m, caps, sys, qp.Uniform(sys.NumQuorums()))
	if err != nil {
		return err
	}
	initial, err := qp.RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		return err
	}
	d, err := qp.NewDaemon(qp.DaemonConfig{
		Instance:       ins,
		Initial:        initial,
		Shards:         c.shards,
		Lambda:         c.lambda,
		DriftThreshold: c.driftThreshold,
		AlwaysReplan:   c.alwaysReplan,
	})
	if err != nil {
		return err
	}

	if c.addr != "" {
		qp.EnableTelemetry()
		defer qp.DisableTelemetry()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		srv, err := d.Serve(ctx, c.addr)
		if err != nil {
			return err
		}
		defer srv.Close()
		// The bound address goes to stderr so stdout stays deterministic
		// under port 0.
		fmt.Fprintf(stderr, "quorumd: serving control API on http://%s\n", srv.Addr())
		if c.hold > 0 {
			defer func() {
				fmt.Fprintf(stderr, "quorumd: holding endpoint for %s\n", c.hold)
				time.Sleep(c.hold)
			}()
		}
	}

	hot := c.hot
	if hot <= 0 {
		hot = c.nodes / 4
	}
	if hot < 1 {
		hot = 1
	}
	rampTicks := c.ramp * float64(c.ticks-1)

	fmt.Fprintf(stdout, "quorumd drift ramp: %d nodes, %s, %d shards, λ=%g, %d ticks × %d accesses, hot set %d\n",
		c.nodes, sys.Name(), d.Shards(), d.Lambda(), c.ticks, c.accesses, hot)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "tick\talpha\tdriftTV\talert\tshard\twarm\tmoves\tmoved\tavgdelay")
	wrng := rand.New(rand.NewSource(c.seed + 1000))
	for t := 0; t < c.ticks; t++ {
		alpha := 1.0
		if rampTicks > 0 {
			alpha = float64(t) / rampTicks
			if alpha > 1 {
				alpha = 1
			}
		}
		ingestRamp(d, ins, wrng, c.accesses, alpha, hot, float64(t))
		rec, err := d.Tick()
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%.3f\t%.4f\t%v\t%d\t%v\t%d\t%.3f\t%.4f\n",
			rec.Seq, alpha, rec.DriftTV, rec.Alerted, rec.Shard, rec.Warm, len(rec.Moves), rec.Moved, rec.AvgDelay)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	st := d.Status()
	fmt.Fprintf(stdout, "final: %d ticks, pending shards %d, placement %v\n",
		st.Ticks, st.PendingShards, d.Placement().Map())
	return nil
}

// ingestRamp feeds one tick's access batch: each access picks a hot-set
// client with probability alpha (uniform otherwise), and contacts a
// uniformly chosen quorum of the system.
func ingestRamp(d *qp.PlacementDaemon, ins *qp.Instance, rng *rand.Rand, accesses int, alpha float64, hot int, tick float64) {
	sys := ins.Sys
	n := ins.M.N()
	for i := 0; i < accesses; i++ {
		v := rng.Intn(n)
		if rng.Float64() < alpha {
			v = rng.Intn(hot)
		}
		q := sys.Quorum(rng.Intn(sys.NumQuorums()))
		at := tick + float64(i)/float64(accesses)
		d.Observe(at, v, q)
	}
}

func runClient(base string, inspect, apply bool, setLambda string, stdout io.Writer) error {
	actions := 0
	for _, a := range []bool{inspect, apply, setLambda != ""} {
		if a {
			actions++
		}
	}
	if actions != 1 {
		return fmt.Errorf("client mode needs exactly one of -inspect, -apply, -set-lambda")
	}
	client := &http.Client{Timeout: 10 * time.Second}

	switch {
	case inspect:
		var st qp.DaemonStatus
		if err := getJSON(client, base+"/status", &st); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "shards %d (next %d, pending %d)  λ=%g  ticks %d  now %.3f\n",
			st.Shards, st.NextShard, st.PendingShards, st.Lambda, st.Ticks, st.Now)
		fmt.Fprintf(stdout, "drift TV %.4f (live weight %.6g)  avg delay %.4f  last tick %.3gs\n",
			st.DriftTV, st.LiveWeight, st.AvgDelay, st.LastTickSeconds)
		var drift qp.HeatDriftReport
		if err := getJSON(client, base+"/drift", &drift); err != nil {
			return err
		}
		fmt.Fprint(stdout, drift.Format())
		return nil
	case apply:
		var rec qp.DaemonTickRecord
		if err := postJSON(client, base+"/tick", nil, &rec); err != nil {
			return err
		}
		out, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
		return nil
	default:
		lam, err := strconv.ParseFloat(setLambda, 64)
		if err != nil {
			return fmt.Errorf("bad -set-lambda %q: %v", setLambda, err)
		}
		if err := postJSON(client, base+"/lambda", map[string]float64{"lambda": lam}, nil); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "lambda set to %g\n", lam)
		return nil
	}
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func postJSON(client *http.Client, url string, body, into any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	resp, err := client.Post(url, "application/json", rd)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if into != nil {
		return json.NewDecoder(resp.Body).Decode(into)
	}
	return nil
}
