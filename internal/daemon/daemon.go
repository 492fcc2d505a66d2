// Package daemon assembles the repository's batch machinery into a
// long-lived placement service: it ingests per-client access observations
// into a heat.Sketch, watches the recent-drift estimate against the demand
// the running placement was planned for, and — when the drift alert trips —
// re-plans the placement incrementally, one shard of the universe per tick,
// through migrate.Planner (whose LP warm start makes a steady-state tick a
// small fraction of a cold solve).
//
// The paper solves quorum placement as a one-shot batch problem; the
// daemon is the production shape of the same mathematics. Partitioning the
// universe into K shards bounds the work (and the movement) of any single
// tick, the λ movement weight bounds how aggressively a re-plan chases the
// live demand, and the alert threshold keeps the solver idle while the
// plan is still fresh.
//
// Everything is deterministic under a fixed seed and virtual clock: ticks
// record no wall-clock state (tick latency goes to telemetry only), so a
// replayed run produces bitwise-identical tick logs.
//
// A tick's cost and the daemon's memory do not grow with uptime: each tick
// reads the sketch's EWMA rates once, the sketch keeps raw counts only for
// its window of recent epochs, and the tick log keeps the newest maxTicks
// records.
package daemon

import (
	"fmt"
	"math"
	"sync"
	"time"

	"quorumplace/internal/heat"
	"quorumplace/internal/migrate"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
)

// Defaults for Config fields left zero.
const (
	DefaultShards         = 4
	DefaultDriftThreshold = 0.1
)

// MinLiveWeight is the EWMA mass floor below which drift is treated as
// noise: an estimate of nothing must not trigger a re-plan.
const MinLiveWeight = 1.0

// maxTicks is how many tick records the log keeps; older ones are
// overwritten.
const maxTicks = 4096

// Config configures a Daemon.
type Config struct {
	// Instance is the placement problem: metric, capacities, quorum
	// system, strategy. The daemon owns it after New (it rewrites Rates on
	// every tick); do not mutate it concurrently.
	Instance *placement.Instance
	// Initial is the placement the daemon starts from, typically the
	// solve against PlanDemand.
	Initial placement.Placement
	// PlanDemand is the per-client demand vector Initial was planned
	// against (relative weights); nil means uniform.
	PlanDemand []float64
	// Shards is the number of placement shards re-solved round-robin, one
	// per tick; ≤ 0 means DefaultShards, clamped to the universe size.
	Shards int
	// Lambda is the movement weight of each incremental re-plan: the tick
	// minimizes delay + λ·movement. Live-tunable via SetLambda.
	Lambda float64
	// DriftThreshold arms re-planning when the recent-drift TV reaches
	// it; ≤ 0 means DefaultDriftThreshold.
	DriftThreshold float64
	// Heat configures the ingestion sketch.
	Heat heat.Options
	// AlwaysReplan re-solves one shard every tick regardless of drift —
	// the steady-state repair mode, and the shape the tick benchmarks
	// measure.
	AlwaysReplan bool
}

// Migration is one element move applied by a tick.
type Migration struct {
	Elem int     `json:"elem"`
	From int     `json:"from"`
	To   int     `json:"to"`
	Cost float64 `json:"cost"` // load(elem) · d(from, to)
}

// TickRecord is the deterministic log entry of one tick. It carries no
// wall-clock state — tick latency is exported through telemetry only — so
// two runs with the same seed produce identical records.
type TickRecord struct {
	Seq        int         `json:"seq"`
	Now        float64     `json:"now"` // virtual time (epoch base × epoch length)
	DriftTV    float64     `json:"drift_tv"`
	LiveWeight float64     `json:"live_weight"`
	Alerted    bool        `json:"alerted"`
	Shard      int         `json:"shard"` // -1: no re-plan this tick
	Warm       bool        `json:"warm"`  // the shard LP reused its previous basis
	Moves      []Migration `json:"moves,omitempty"`
	Moved      float64     `json:"moved"`     // Σ move cost this tick
	AvgDelay   float64     `json:"avg_delay"` // predicted Avg_v Γ of the placement under live demand
	LPBound    float64     `json:"lp_bound"`  // shard LP bound, 0 when no re-plan ran
}

// Daemon is the long-lived placement service. All methods are safe for
// concurrent use; ticks serialize on an internal mutex.
type Daemon struct {
	mu     sync.Mutex
	cfg    Config
	ins    *placement.Instance
	sketch *heat.Sketch
	cur    []int // current placement map (element → node)

	planDemand   []float64 // demand the running placement is planned for
	targetDemand []float64 // demand snapshot driving the active re-plan cycle
	cycleLeft    int       // shards left in the active cycle; 0 = idle

	shards   [][]int
	planners []*migrate.Planner
	next     int // next shard to re-solve

	lambda    float64
	epochBase int64 // ingestion offset, in epochs
	// ticks is a ring of the newest maxTicks records: tick s sits at
	// s % maxTicks. It grows by append until it is full.
	ticks  []TickRecord
	nticks int // ticks recorded since New

	// lastTickSec is the wall-clock duration of the most recent tick. It
	// feeds /status and telemetry only — never TickRecord — so replayed
	// runs stay bitwise identical.
	lastTickSec float64
}

// New validates cfg and builds the daemon: K static round-robin shards of
// the universe, one warm-capable planner per shard, and an empty sketch.
func New(cfg Config) (*Daemon, error) {
	if cfg.Instance == nil {
		return nil, fmt.Errorf("daemon: nil instance")
	}
	ins := cfg.Instance
	if err := ins.Validate(cfg.Initial); err != nil {
		return nil, fmt.Errorf("daemon: initial placement: %w", err)
	}
	if cfg.PlanDemand != nil && len(cfg.PlanDemand) != ins.M.N() {
		return nil, fmt.Errorf("daemon: %d plan-demand weights for %d clients", len(cfg.PlanDemand), ins.M.N())
	}
	if cfg.Lambda < 0 || math.IsNaN(cfg.Lambda) || math.IsInf(cfg.Lambda, 0) {
		return nil, fmt.Errorf("daemon: lambda = %v must be a finite non-negative value", cfg.Lambda)
	}
	nU := ins.Sys.Universe()
	k := cfg.Shards
	if k <= 0 {
		k = DefaultShards
	}
	if k > nU {
		k = nU
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = DefaultDriftThreshold
	}
	shards := make([][]int, k)
	for u := 0; u < nU; u++ {
		shards[u%k] = append(shards[u%k], u)
	}
	planners := make([]*migrate.Planner, k)
	for i, elems := range shards {
		pl, err := migrate.NewPlanner(ins, elems)
		if err != nil {
			return nil, fmt.Errorf("daemon: shard %d: %w", i, err)
		}
		planners[i] = pl
	}
	// Materialize a nil plan demand as explicit uniform weights over the
	// full client space: heat.Drift treats nil as uniform over the *live*
	// index space, which would hide a hot-spot concentrated on the first
	// few clients (the live vector would only be as long as the hottest
	// observed index).
	planDemand := make([]float64, ins.M.N())
	for v := range planDemand {
		planDemand[v] = 1
	}
	if cfg.PlanDemand != nil {
		copy(planDemand, cfg.PlanDemand)
	}
	return &Daemon{
		cfg:        cfg,
		ins:        ins,
		sketch:     heat.New(cfg.Heat),
		cur:        cfg.Initial.Map(),
		planDemand: planDemand,
		shards:     shards,
		planners:   planners,
		lambda:     cfg.Lambda,
	}, nil
}

// Shards returns the number of placement shards.
func (d *Daemon) Shards() int { return len(d.shards) }

// Lambda returns the current movement weight.
func (d *Daemon) Lambda() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lambda
}

// SetLambda retunes the movement weight for subsequent ticks.
func (d *Daemon) SetLambda(lambda float64) error {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return fmt.Errorf("daemon: lambda = %v must be a finite non-negative value", lambda)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lambda = lambda
	return nil
}

// Placement returns a copy of the current placement.
func (d *Daemon) Placement() placement.Placement {
	d.mu.Lock()
	defer d.mu.Unlock()
	return placement.NewPlacement(d.cur)
}

// Ticks returns a copy of the retained tick log, the newest maxTicks
// records, oldest first.
func (d *Daemon) Ticks() []TickRecord {
	return d.lastTicks(maxTicks)
}

// lastTicks copies the newest n retained tick records, oldest first.
func (d *Daemon) lastTicks(n int) []TickRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]TickRecord, min(n, len(d.ticks)))
	for i := range out {
		out[i] = d.ticks[(d.nticks-len(out)+i)%maxTicks]
	}
	return out
}

// Now returns the daemon's virtual time: the ingestion epoch base times
// the epoch length.
func (d *Daemon) Now() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now()
}

func (d *Daemon) now() float64 {
	return float64(d.epochBase) * d.sketch.EpochLen()
}

// Observe records one client access (to the given quorum's nodes) at
// daemon-relative virtual time at, offset by the current epoch base.
func (d *Daemon) Observe(at float64, client int, nodes []int) {
	d.mu.Lock()
	base := d.now()
	d.mu.Unlock()
	d.sketch.Observe(base+at, client, nodes)
}

// IngestSketch folds a run-local sketch (virtual clock starting at zero,
// e.g. netsim's Config.Heat) into the daemon's sketch at the current epoch
// base, then advances the base past the run's last epoch so the next run's
// observations land strictly later.
func (d *Daemon) IngestSketch(run *heat.Sketch) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.sketch.MergeShifted(run, d.epochBase); err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	if max, ok := run.MaxEpoch(); ok {
		d.epochBase += max + 1
	}
	obs.Count("daemon.ingests", 1)
	return nil
}

// Drift returns the recent-drift report of the live demand estimate
// against the demand the running placement is planned for. Like every
// rate read it holds d.mu, so it cannot seal epochs under an /observe
// batch that observeBatch has validated but not yet ingested.
func (d *Daemon) Drift() (*heat.DriftReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sketch.RecentDrift(d.planDemand)
}

// padRates pads (or truncates) EWMA client rates to the instance's client
// count.
func (d *Daemon) padRates(rates []float64) []float64 {
	n := d.ins.M.N()
	if len(rates) > n {
		rates = rates[:n]
	} else if len(rates) < n {
		rates = append(rates, make([]float64, n-len(rates))...)
	}
	return rates
}

// Tick runs one control-loop step: refresh the drift estimate, arm or
// advance a re-plan cycle, re-solve at most one shard, and apply its moves.
// It returns the deterministic record appended to the tick log.
func (d *Daemon) Tick() (TickRecord, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	defer func() {
		d.lastTickSec = time.Since(start).Seconds()
		obs.Observe("daemon.tick_seconds", d.lastTickSec)
	}()
	sp := obs.Start("daemon.tick")
	defer sp.End()
	obs.Count("daemon.ticks", 1)

	rec := TickRecord{Seq: d.nticks, Now: d.now(), Shard: -1}

	// One rate read feeds both the drift score and the live demand.
	rates := d.sketch.ClientRates()
	rep, err := heat.Drift(rates, d.planDemand)
	if err != nil {
		return rec, fmt.Errorf("daemon: drift: %w", err)
	}
	rec.DriftTV, rec.LiveWeight = rep.TV, rep.LiveWeight

	live := d.padRates(rates)
	alerted := rep.TV >= d.cfg.DriftThreshold && rep.LiveWeight >= MinLiveWeight
	rec.Alerted = alerted
	if alerted && d.cycleLeft == 0 {
		// Rising edge: pin the live demand as the target every shard of
		// this cycle re-plans against, so the K shard solves compose into
		// one coherent plan even while the estimate keeps moving.
		d.cycleLeft = len(d.shards)
		d.targetDemand = append([]float64(nil), live...)
		obs.Count("daemon.alerts", 1)
	}

	replan := d.cycleLeft > 0 || d.cfg.AlwaysReplan
	if replan {
		target := d.targetDemand
		if d.cycleLeft == 0 {
			// AlwaysReplan outside a cycle tracks the live estimate.
			target = live
		}
		if err := d.replanShard(&rec, target); err != nil {
			return rec, err
		}
		if d.cycleLeft > 0 {
			d.cycleLeft--
			if d.cycleLeft == 0 {
				// Cycle complete: the placement is now planned for the
				// target demand; drift re-arms relative to it.
				d.planDemand = d.targetDemand
				d.targetDemand = nil
			}
		}
	}

	// Predicted delay of the (possibly updated) placement under the live
	// demand — the series E21 watches recover after a drift ramp.
	if err := d.setRates(live); err != nil {
		return rec, err
	}
	rec.AvgDelay = d.ins.AvgTotalDelay(placement.NewPlacement(d.cur))

	if len(d.ticks) < maxTicks {
		if len(d.ticks) == cap(d.ticks) && 2*cap(d.ticks) > maxTicks {
			// The last growth step: allocate the full ring, no more.
			d.ticks = append(make([]TickRecord, 0, maxTicks), d.ticks...)
		}
		d.ticks = append(d.ticks, rec)
	} else {
		d.ticks[d.nticks%maxTicks] = rec
	}
	d.nticks++
	obs.Observe("daemon.tick_moves", float64(len(rec.Moves)))
	return rec, nil
}

// setRates points the instance's demand weights at the given vector,
// falling back to the plan demand when it carries no mass.
func (d *Daemon) setRates(rates []float64) error {
	if massOf(rates) <= 0 {
		rates = d.planDemand // always materialized by New
	}
	if err := d.ins.SetRates(rates); err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	return nil
}

// replanShard re-solves the next shard in round-robin order against the
// target demand and applies its moves to the current placement.
func (d *Daemon) replanShard(rec *TickRecord, target []float64) error {
	shard := d.next
	pl := d.planners[shard]
	elems := d.shards[shard]
	if err := d.setRates(target); err != nil {
		return err
	}

	// Residual capacities: full capacity minus the incumbent load of
	// elements outside this shard, floored at the shard's own incumbent
	// load per node so the current assignment always remains LP-feasible
	// (the rounded incumbent may overshoot cap by up to p_max).
	n := d.ins.M.N()
	resid := append([]float64(nil), d.ins.Cap...)
	inShard := make([]bool, d.ins.Sys.Universe())
	for _, u := range elems {
		inShard[u] = true
	}
	shardLoad := make([]float64, n)
	for u, v := range d.cur {
		if inShard[u] {
			shardLoad[v] += d.ins.Load(u)
		} else {
			resid[v] -= d.ins.Load(u)
		}
	}
	for v := range resid {
		if resid[v] < shardLoad[v] {
			resid[v] = shardLoad[v]
		}
		if resid[v] < 0 {
			resid[v] = 0
		}
	}

	oldP := placement.NewPlacement(d.cur)
	sol, err := pl.Solve(oldP, d.lambda, resid)
	if err != nil {
		return fmt.Errorf("daemon: shard %d: %w", shard, err)
	}
	rec.Shard, rec.Warm, rec.LPBound = shard, sol.Warm, sol.LPBound
	if sol.Warm {
		obs.Count("daemon.warm_ticks", 1)
	} else {
		obs.Count("daemon.cold_ticks", 1)
	}
	for i, u := range sol.Elems {
		from, to := d.cur[u], sol.Nodes[i]
		if from == to {
			continue
		}
		cost := d.ins.Load(u) * d.ins.M.D(from, to)
		rec.Moves = append(rec.Moves, Migration{Elem: u, From: from, To: to, Cost: cost})
		rec.Moved += cost
		d.cur[u] = to
	}
	obs.Count("daemon.moves", int64(len(rec.Moves)))
	d.next = (d.next + 1) % len(d.shards)
	return nil
}

func massOf(w []float64) float64 {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	return sum
}

// ResetWarm discards every planner's retained LP basis, forcing the next
// re-plan of each shard cold. Benchmarks use it to isolate the cold path.
func (d *Daemon) ResetWarm() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, pl := range d.planners {
		pl.ResetWarm()
	}
}
