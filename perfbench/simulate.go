package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"quorumplace/internal/check"
	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/netsim"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// The simulate workload measures simulator throughput on a placement fixed
// during set-up. Each op runs the three simulators — max-delay accesses
// with a heat sketch attached, crash/retry failure injection, and FIFO
// service queues — on the sharded engine at one worker per CPU.

type simConfig struct {
	nodes, ops                  int
	runAPC, failAPC, queueAPC   int
	failProb, retryPenalty      float64
	maxRetries                  int
	serviceMean, utilizationMax float64
}

type simOut struct {
	dig     string
	p99     float64
	retries int
}

type simBench struct {
	cfg       simConfig
	ins       *placement.Instance
	pl        placement.Placement
	seeds     []int64
	workers   int
	arrival   float64
	loadFac   float64
	traced    bool
	queueEvts int64 // netsim events of RunQueueing in traced passes
	queueRnds int64

	run   *netsim.Stats
	fail  *netsim.FailureStats
	queue *netsim.QueueStats
	sk    *heat.Sketch
	ref   []simOut
}

func setupSimulate(seed int64, tiny bool) (bench, error) {
	cfg := simConfig{
		nodes: 200, ops: 8,
		runAPC: 1200, failAPC: 600, queueAPC: 30,
		failProb: 0.05, retryPenalty: 1, maxRetries: 2,
		serviceMean: 0.01, utilizationMax: 0.7,
	}
	if tiny {
		cfg.nodes, cfg.ops, cfg.runAPC, cfg.failAPC, cfg.queueAPC = 64, 2, 4, 4, 4
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomGeometric(cfg.nodes, 0.15, rng)
	m, err := graph.BuildMetric(g)
	if err != nil {
		return nil, err
	}
	sys := quorum.Majority(9, 5)
	caps := make([]float64, cfg.nodes)
	for v := range caps {
		caps[v] = 1
	}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	res, err := placement.SolveQPPParallel(ins, planAlpha, workers)
	if err != nil {
		return nil, err
	}
	if err := check.AuditQPP(ins, res); err != nil {
		return nil, err
	}
	b := &simBench{cfg: cfg, ins: ins, pl: res.Placement, workers: workers, loadFac: loadFactor(ins, res.Placement)}
	// Node v receives messages at rate n·λ·load(v) and serves them in
	// ServiceMean/cap(v) on average; size λ so the hottest node stays at
	// utilizationMax, well below saturation, and queues measure the engine
	// rather than backlog growth.
	worst := 0.0
	for v, l := range ins.NodeLoads(res.Placement) {
		worst = max(worst, l/caps[v])
	}
	b.arrival = cfg.utilizationMax / (float64(cfg.nodes) * cfg.serviceMean * worst)
	for i := 0; i < cfg.ops; i++ {
		b.seeds = append(b.seeds, rng.Int63())
	}
	// One untimed op pays the first run's page faults and lazy
	// initialization, so the timed passes start warm.
	if err := b.op(0); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *simBench) passLen() int { return len(b.seeds) }

func (b *simBench) beginPass(traced bool) error {
	b.traced = traced
	return nil
}

func (b *simBench) op(i int) error {
	seed := b.seeds[i]
	b.sk = heat.New(heat.Options{})
	var err error
	b.run, err = netsim.Run(netsim.Config{
		Instance: b.ins, Placement: b.pl, Mode: netsim.Parallel,
		AccessesPerClient: b.cfg.runAPC, Seed: seed, Heat: b.sk, Workers: b.workers,
	})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	b.fail, err = netsim.RunWithFailures(netsim.FailureConfig{
		Instance: b.ins, Placement: b.pl, Mode: netsim.Parallel,
		NodeFailureProb: b.cfg.failProb, MaxRetries: b.cfg.maxRetries, RetryPenalty: b.cfg.retryPenalty,
		AccessesPerClient: b.cfg.failAPC, Seed: seed + 1, Workers: b.workers,
	})
	if err != nil {
		return fmt.Errorf("failures: %w", err)
	}
	var before *obs.Snapshot
	if b.traced {
		before = obs.Active().Snapshot()
	}
	b.queue, err = netsim.RunQueueing(netsim.QueueConfig{
		Instance: b.ins, Placement: b.pl, ArrivalRate: b.arrival, ServiceMean: b.cfg.serviceMean,
		AccessesPerClient: b.cfg.queueAPC, Seed: seed + 2, Workers: b.workers,
	})
	if err != nil {
		return fmt.Errorf("queueing: %w", err)
	}
	if b.traced {
		after := obs.Active().Snapshot()
		b.queueEvts += after.Counter("netsim.events") - before.Counter("netsim.events")
		b.queueRnds += after.Counter("netsim.pdes_rounds") - before.Counter("netsim.pdes_rounds")
	}
	return nil
}

// endOp audits the simulators' counting identities and requires every
// output to repeat the first pass bit for bit.
func (b *simBench) endOp(i int) error {
	n := b.cfg.nodes
	if b.run.Accesses != n*b.cfg.runAPC {
		return fmt.Errorf("run: %d accesses, want %d", b.run.Accesses, n*b.cfg.runAPC)
	}
	if err := check.AuditFailureStats(b.fail, n, b.cfg.failAPC, b.cfg.maxRetries); err != nil {
		return err
	}
	if b.queue.Accesses != n*b.cfg.queueAPC {
		return fmt.Errorf("queueing: %d accesses, want %d", b.queue.Accesses, n*b.cfg.queueAPC)
	}
	if got := b.sk.Accesses(); got != int64(b.run.Accesses) {
		return fmt.Errorf("heat sketch saw %d accesses, run made %d", got, b.run.Accesses)
	}
	d := newDigest()
	d.floats(b.run.Latencies()...)
	d.int64s(b.run.NodeHits)
	d.floats(b.run.AvgLatency, b.run.Clock)
	d.int64s(b.sk.NodeTotals())
	d.int64s(b.sk.ClientTotals())
	f := b.fail
	d.ints(f.Accesses, f.Succeeded, f.FailedOutright, f.Retries)
	d.floats(f.SuccessRate, f.AvgLatency, f.EmpiricalUnavail)
	q := b.queue
	d.ints(q.Accesses)
	d.floats(q.AvgLatency, q.AvgWait, q.Clock)
	d.floats(q.Utilization...)
	out := simOut{dig: d.String(), p99: b.run.Percentile(0.99), retries: f.Retries}
	if len(b.ref) <= i {
		b.ref = append(b.ref, out)
		return nil
	}
	if out.dig != b.ref[i].dig {
		return fmt.Errorf("simulator outputs differ from the first pass")
	}
	return nil
}

func (b *simBench) endPass() error { return nil }

func (b *simBench) passWork() float64 {
	c := b.cfg
	return float64(c.nodes * (c.runAPC + c.failAPC + c.queueAPC) * len(b.seeds))
}

func (b *simBench) quality() (float64, float64) {
	var p99s []float64
	for _, o := range b.ref {
		p99s = append(p99s, o.p99)
	}
	return mean(p99s), b.loadFac
}

func (b *simBench) digest() string {
	d := newDigest()
	for _, o := range b.ref {
		d.add([]byte(o.dig))
	}
	return d.String()
}

func (b *simBench) summary() []string {
	p99, _ := b.quality()
	retries := 0
	for _, o := range b.ref {
		retries += o.retries
	}
	return []string{fmt.Sprintf("  sim_p99_delay=%.6g (mean over %d seeds) arrival_rate=%.6g retries_per_pass=%d",
		p99, len(b.ref), b.arrival, retries)}
}

func (b *simBench) layerExtras() map[string]float64 {
	return map[string]float64{"netsim.pdes_rounds_per_event": ratio(float64(b.queueRnds), float64(b.queueEvts))}
}

func (b *simBench) close() {}
