// failover: availability of placed quorum systems under node crashes.
//
// Once logical elements are placed on physical nodes, every element on a
// crashed node fails together — so the placement, not just the quorum
// system, determines availability. This example places a Majority(5,3)
// system on a ring-of-cliques WAN three ways (delay-optimized, greedy, and
// deliberately colocated), computes the exact probability that no quorum
// survives node crashes, and cross-checks it against the crash/retry
// simulator.
package main

import (
	"fmt"
	"log"

	qp "quorumplace"
)

func main() {
	log.SetFlags(0)

	// Three data centers of four hosts, joined by slow WAN bridges.
	g := qp.RingOfCliques(3, 4, 8)
	m, err := qp.BuildMetric(g)
	if err != nil {
		log.Fatal(err)
	}
	sys := qp.Majority(5, 3)
	caps := make([]float64, 12)
	for i := range caps {
		caps[i] = 1.3
	}
	ins, err := qp.NewInstance(m, caps, sys, qp.Uniform(sys.NumQuorums()))
	if err != nil {
		log.Fatal(err)
	}

	lp, err := qp.SolveQPP(ins, 2)
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := qp.BestGreedyPlacement(ins)
	if err != nil {
		log.Fatal(err)
	}
	colocated := qp.NewPlacement([]int{0, 0, 4, 4, 8}) // two elements per DC head

	const crashP = 0.15
	fmt.Printf("element-level failure probability of %s at p=%.2f: ", sys.Name(), crashP)
	if f, err := qp.FailureProbability(sys, crashP); err == nil {
		res, err := qp.Resilience(sys)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%.4f (resilience %d)\n\n", f, res)
	}

	fmt.Printf("%-22s  %-8s  %-11s  %-16s  %-13s  %-12s\n",
		"placement", "avg Δ", "resilience", "P(no live quorum)", "sim unavail", "success rate")
	for _, c := range []struct {
		name string
		p    qp.Placement
	}{
		{"LP rounding (Thm 1.2)", lp.Placement},
		{"greedy closest", greedy},
		{"colocated per-DC", colocated},
	} {
		fp, err := ins.NodeFailureProbability(c.p, crashP)
		if err != nil {
			log.Fatal(err)
		}
		res, err := ins.PlacementResilience(c.p)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := qp.RunSimWithFailures(qp.FailureSimConfig{
			Instance: ins, Placement: c.p, Mode: qp.SimParallel,
			NodeFailureProb: crashP, MaxRetries: 4, RetryPenalty: 2,
			AccessesPerClient: 3000, Seed: 17,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s  %-8.3f  %-11d  %-16.4f  %-13.4f  %-12.4f\n",
			c.name, ins.AvgMaxDelay(c.p), res, fp, stats.EmpiricalUnavail, stats.SuccessRate)
	}
	fmt.Println("\nP(no live quorum) is exact (2^nodes enumeration); sim unavail is the sampled estimate.")
}
