package agg_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"quorumplace/internal/agg"
	"quorumplace/internal/check"
	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func TestDemandBasics(t *testing.T) {
	d := agg.NewDemand(4)
	if err := d.AddClients([]agg.Client{{Node: 0, Weight: 2}, {Node: 3, Weight: 1.5}, {Node: 0, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if d.Clients() != 3 || d.Nodes() != 4 {
		t.Fatalf("clients %d nodes %d", d.Clients(), d.Nodes())
	}
	if got := d.Total(); got != 4.5 {
		t.Fatalf("total %v", got)
	}
	r := d.Rates()
	if want := []float64{3, 0, 0, 1.5}; !reflect.DeepEqual(r, want) {
		t.Fatalf("rates %v, want %v", r, want)
	}
	r[0] = 99
	if d.Rates()[0] != 3 {
		t.Fatal("Rates must return a copy")
	}
	if err := d.Add(4, 1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := d.Add(1, math.Inf(1)); err == nil {
		t.Fatal("infinite weight accepted")
	}
	if err := d.Add(1, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// syntheticClients draws a deterministic population with integer weights —
// the shape under which aggregation promises bitwise determinism.
func syntheticClients(rng *rand.Rand, n, k int) []agg.Client {
	cs := make([]agg.Client, k)
	for i := range cs {
		cs[i] = agg.Client{Node: rng.Intn(n), Weight: float64(1 + rng.Intn(9))}
	}
	return cs
}

// Integer-weight ingestion must produce the bitwise-identical rate vector
// under any arrival order, and therefore a bitwise-identical solve.
func TestArrivalOrderBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, k = 300, 200_000
	clients := syntheticClients(rng, n, k)

	seq := agg.NewDemand(n)
	if err := seq.AddClients(clients); err != nil {
		t.Fatal(err)
	}

	perm := agg.NewDemand(n)
	for _, i := range rng.Perm(k) {
		if err := perm.Add(clients[i].Node, clients[i].Weight); err != nil {
			t.Fatal(err)
		}
	}

	a, b := seq.Rates(), perm.Rates()
	for v := 0; v < n; v++ {
		if a[v] != b[v] {
			t.Fatalf("node %d: sequential %v, permuted %v", v, a[v], b[v])
		}
	}

	// Identical rates must yield an identical solve through the full
	// pipeline (the instance is gate-eligible, so this exercises the exact
	// DP fast path under aggregated demand).
	g := graph.RandomTree(n, 0.3, 1.5, rng)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Majority(5, 3)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.8
	}
	mk := func(rates []float64) *placement.QPPResult {
		ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
		if err != nil {
			t.Fatal(err)
		}
		if err := ins.SetRates(rates); err != nil {
			t.Fatal(err)
		}
		res, err := placement.SolveQPP(ins, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if r1, r2 := mk(a), mk(b); !reflect.DeepEqual(r1, r2) {
		t.Fatalf("reordered ingestion changed the solve:\n  %+v\n  %+v", r1, r2)
	}
}

// The aggregation equivalence property on the seeded instance sweep: for
// every generated quorum construction and topology, synthesizing a raw
// client population, aggregating it into rates, and evaluating the planted
// placement must reproduce the naive per-client objective. Integer weights
// keep both sides within one rounding of each other (1e-12 relative).
func TestAggregationMatchesPerClientSweep(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		ci := check.Gen(seed)
		ins := ci.Instance
		n := ins.M.N()
		rng := rand.New(rand.NewSource(seed * 31))
		clients := syntheticClients(rng, n, 200+rng.Intn(800))

		d := agg.NewDemand(n)
		if err := d.AddClients(clients); err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyTo(ins); err != nil {
			t.Fatalf("%s: %v", ci.Desc, err)
		}
		got := ins.AvgMaxDelay(ci.Planted)
		want, err := agg.PerClientAvgMaxDelay(ins, clients, ci.Planted)
		if err != nil {
			t.Fatalf("%s: %v", ci.Desc, err)
		}
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("%s: aggregated objective %v, per-client objective %v", ci.Desc, got, want)
		}
	}
}
