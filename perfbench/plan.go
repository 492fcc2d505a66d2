package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"quorumplace/internal/agg"
	"quorumplace/internal/check"
	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// The plan workload is batch placement: each op builds a random-geometric
// WAN per quorum system, computes its metric, aggregates a million-client
// population into per-node demand and solves Theorem 1.2's QPP over every
// source in parallel. The first system is routed through the LP pipeline
// (the simplex does nearly all the work), the second through the exact
// tree DP (n ≥ 64 nodes, universe ≤ 16).

type planSystem struct {
	sys     *quorum.System
	nodes   int
	radius  float64
	clients []agg.Client
}

type planOut struct {
	pl   []int
	avg  float64
	load float64
}

type planBench struct {
	systems []planSystem
	seeds   []int64 // one WAN seed per op of a pass
	workers int
	alpha   float64

	cur []*placement.QPPResult
	ins []*placement.Instance
	ref [][]planOut // first pass, per op and system
}

const planAlpha = 2

func setupPlan(seed int64, tiny bool) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	clients, ops := 1_000_000, 16
	lpNodes, dpNodes := 14, 128
	if tiny {
		clients, ops, lpNodes, dpNodes = 1000, 2, 8, 64
	}
	b := &planBench{
		systems: []planSystem{
			{sys: quorum.Grid(3), nodes: lpNodes, radius: 0.4},
			{sys: quorum.Majority(9, 5), nodes: dpNodes, radius: 0.2},
		},
		workers: runtime.NumCPU(),
		alpha:   planAlpha,
	}
	for s := range b.systems {
		b.systems[s].clients = genClients(rng, clients, b.systems[s].nodes)
	}
	for i := 0; i < ops; i++ {
		b.seeds = append(b.seeds, rng.Int63())
	}
	// One untimed op pays the first run's page faults and lazy
	// initialization, so the timed passes start warm.
	if err := b.op(0); err != nil {
		return nil, err
	}
	return b, nil
}

// genClients draws a skewed client population: node index u² · n puts the
// heaviest demand on low-numbered nodes, which the geometry scatters. Integer
// weights keep the aggregated demand bitwise independent of order.
func genClients(rng *rand.Rand, count, n int) []agg.Client {
	cs := make([]agg.Client, count)
	for i := range cs {
		u := rng.Float64()
		cs[i] = agg.Client{Node: int(u * u * float64(n)), Weight: float64(1 + rng.Intn(4))}
	}
	return cs
}

func (b *planBench) passLen() int { return len(b.seeds) }

func (b *planBench) beginPass(bool) error { return nil }

func (b *planBench) op(i int) error {
	b.cur, b.ins = b.cur[:0], b.ins[:0]
	for s, ps := range b.systems {
		g := graph.RandomGeometric(ps.nodes, ps.radius, rand.New(rand.NewSource(b.seeds[i]+int64(s))))
		sp := obs.Start("graph.build_metric")
		m, err := graph.BuildMetric(g)
		sp.End()
		if err != nil {
			return err
		}
		d := agg.NewDemand(ps.nodes)
		sp = obs.Start("agg.add_clients")
		err = d.AddClients(ps.clients)
		sp.End()
		if err != nil {
			return err
		}
		caps := make([]float64, ps.nodes)
		for v := range caps {
			caps[v] = 1
		}
		ins, err := placement.NewInstance(m, caps, ps.sys, quorum.Uniform(ps.sys.NumQuorums()))
		if err != nil {
			return err
		}
		if err := ins.SetRates(d.Rates()); err != nil {
			return err
		}
		res, err := placement.SolveQPPParallel(ins, b.alpha, b.workers)
		if err != nil {
			return fmt.Errorf("%s on %d nodes: %w", ps.sys.Name(), ps.nodes, err)
		}
		b.cur = append(b.cur, res)
		b.ins = append(b.ins, ins)
	}
	return nil
}

// endOp audits each placement against Theorem 1.2 and requires it to
// repeat the first pass bit for bit.
func (b *planBench) endOp(i int) error {
	outs := make([]planOut, len(b.cur))
	for s, res := range b.cur {
		if err := check.AuditQPP(b.ins[s], res); err != nil {
			return fmt.Errorf("%s: %w", b.systems[s].sys.Name(), err)
		}
		outs[s] = planOut{pl: res.Placement.Map(), avg: res.AvgMaxDelay, load: loadFactor(b.ins[s], res.Placement)}
	}
	if len(b.ref) <= i {
		b.ref = append(b.ref, outs)
		return nil
	}
	for s, o := range outs {
		r := b.ref[i][s]
		if !slices.Equal(o.pl, r.pl) || o.avg != r.avg {
			return fmt.Errorf("%s: placement differs from the first pass", b.systems[s].sys.Name())
		}
	}
	return nil
}

func (b *planBench) endPass() error { return nil }

func (b *planBench) passWork() float64 {
	sources := 0
	for _, ps := range b.systems {
		sources += ps.nodes
	}
	return float64(sources * len(b.seeds))
}

func (b *planBench) quality() (float64, float64) {
	var avgs []float64
	load := 0.0
	for _, outs := range b.ref {
		for _, o := range outs {
			avgs = append(avgs, o.avg)
			load = max(load, o.load)
		}
	}
	return mean(avgs), load
}

func (b *planBench) digest() string {
	d := newDigest()
	for _, outs := range b.ref {
		for _, o := range outs {
			d.ints(o.pl...)
			d.floats(o.avg)
		}
	}
	return d.String()
}

func (b *planBench) summary() []string {
	delay, load := b.quality()
	return []string{fmt.Sprintf("  plan_avg_max_delay=%.6g plan_load_factor=%.6g (%d WANs × %d systems)",
		delay, load, len(b.ref), len(b.systems))}
}

func (b *planBench) layerExtras() map[string]float64 { return nil }

func (b *planBench) close() {}

// loadFactor is the placement's worst node load as a multiple of capacity.
func loadFactor(ins *placement.Instance, p placement.Placement) float64 {
	worst := 0.0
	for v, l := range ins.NodeLoads(p) {
		if ins.Cap[v] > 0 {
			worst = max(worst, l/ins.Cap[v])
		}
	}
	return worst
}
