package quorumplace

import (
	"fmt"
	"math/rand"
	"testing"
)

// Scaling benchmark family (experiment E18): the client dimension must cost
// only aggregation (linear, tiny constant), never solver work, and the node
// dimension must ride the exact tree DP instead of the n² metric + LP.
// cmd/benchdiff's table gates these: a ratio holds clients=10⁶ against
// clients=10⁴ at fixed topology, a ceiling the 10⁵-node/10⁶-client
// pipeline, and the allocs band the metric builder.

// scalingClients draws a deterministic client population with integer
// weights over n nodes.
func scalingClients(rng *rand.Rand, n, k int) []Client {
	cs := make([]Client, k)
	for i := range cs {
		cs[i] = Client{Node: rng.Intn(n), Weight: float64(1 + rng.Intn(9))}
	}
	return cs
}

// BenchmarkScalingClients holds the network fixed (a 2000-node tree) and
// scales only the raw client count. Each op runs the full demand pipeline —
// aggregate the population, apply it as rates, solve QPP on the tree — so
// the measured growth from 10⁴ to 10⁶ clients is exactly the aggregation
// cost, which the gate requires to stay within the solve time.
func BenchmarkScalingClients(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(11))
	g := RandomTree(n, 0.1, 1.0, rng)
	sys := Majority(7, 4)
	strat := Uniform(sys.NumQuorums())
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.6
	}
	for _, k := range []int{10_000, 1_000_000} {
		clients := scalingClients(rng, n, k)
		b.Run(fmt.Sprintf("clients=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := NewDemand(n)
				if err := d.AddClients(clients); err != nil {
					b.Fatal(err)
				}
				res, err := SolveQPPTree(g, caps, sys, strat, d.Rates())
				if err != nil {
					b.Fatal(err)
				}
				if res.AvgMaxDelay <= 0 {
					b.Fatal("degenerate objective")
				}
			}
		})
	}
}

// BenchmarkMetricBuild pins the allocation profile of the parallel dense
// metric builder. The failure mode it guards is per-row workspace churn
// (one heap/visited allocation per source = O(n) allocs); the allocs band
// in cmd/benchdiff's table absorbs the O(workers) per-run allocations,
// which legitimately vary with GOMAXPROCS.
func BenchmarkMetricBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	g := RandomGeometric(1000, 0.08, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildMetric(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeDP is the headline scaling run: a 10⁵-node tree with 10⁶
// aggregated clients through the full pipeline (aggregation, rate-weighted
// candidate selection, exact per-source subset DP, exact objective
// evaluation). A ceiling in cmd/benchdiff's table holds it to the
// 10-second promise. It reports the DP's transition pairs per op
// (treedp.dp_ops), counted in one untimed telemetry-on run of the pipeline
// before the sub-benchmark, so the count is exact and does not depend on
// b.N; the table gates it.
func BenchmarkTreeDP(b *testing.B) {
	const n, k = 100_000, 1_000_000
	rng := rand.New(rand.NewSource(13))
	g := RandomTree(n, 0.1, 1.0, rng)
	sys := Majority(5, 3)
	strat := Uniform(sys.NumQuorums())
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 0.7
	}
	clients := scalingClients(rng, n, k)
	pipeline := func(b *testing.B) {
		d := NewDemand(n)
		if err := d.AddClients(clients); err != nil {
			b.Fatal(err)
		}
		res, err := SolveQPPTree(g, caps, sys, strat, d.Rates())
		if err != nil {
			b.Fatal(err)
		}
		if res.AvgMaxDelay <= 0 {
			b.Fatal("degenerate objective")
		}
	}
	c := EnableTelemetry()
	pipeline(b)
	DisableTelemetry()
	dpOps := c.Snapshot().Counter("treedp.dp_ops")
	b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pipeline(b)
		}
		b.ReportMetric(float64(dpOps), "dp_ops/op")
	})
}
