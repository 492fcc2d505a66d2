package quorumplace_test

import (
	"fmt"
	"strings"

	qp "quorumplace"
)

// ExampleSolveQPP places a 2×2 Grid system on a path network with the
// Theorem 1.2 solver.
func ExampleSolveQPP() {
	g := qp.Path(6)
	m, _ := qp.NewMetricFromGraph(g)
	sys := qp.Grid(2)
	caps := []float64{0.75, 0.75, 0.75, 0.75, 0.75, 0.75}
	ins, _ := qp.NewInstance(m, caps, sys, qp.Uniform(sys.NumQuorums()))

	res, _ := qp.SolveQPP(ins, 2.0)
	fmt.Printf("delay %.4f within bound, load factor %.1f ≤ 3\n",
		res.AvgMaxDelay, ins.CapacityViolation(res.Placement))
	// Output:
	// delay 2.0000 within bound, load factor 2.0 ≤ 3
}

// ExampleSolveGridQPP uses the capacity-respecting §4.1 layout.
func ExampleSolveGridQPP() {
	g := qp.Path(6)
	m, _ := qp.NewMetricFromGraph(g)
	sys := qp.Grid(2)
	caps := []float64{0.75, 0.75, 0.75, 0.75, 0.75, 0.75}
	ins, _ := qp.NewInstance(m, caps, sys, qp.Uniform(sys.NumQuorums()))

	res, avg, _ := qp.SolveGridQPP(ins)
	fmt.Printf("avg delay %.4f, feasible %v, source v%d\n",
		avg, ins.Feasible(res.Placement), res.V0)
	// Output:
	// avg delay 2.7500, feasible true, source v3
}

// ExampleOptimalStrategy computes the Naor–Wool load-optimal strategy.
func ExampleOptimalStrategy() {
	sys := qp.Grid(3)
	_, load, _ := qp.OptimalStrategy(sys)
	fmt.Printf("optimal load %.4f = (2k-1)/k²\n", load)
	// Output:
	// optimal load 0.5556 = (2k-1)/k²
}

// ExampleFailureProbability evaluates majority availability.
func ExampleFailureProbability() {
	f, _ := qp.FailureProbability(qp.Majority(5, 3), 0.1)
	fmt.Printf("F_0.1(majority-3-of-5) = %.4f\n", f)
	// Output:
	// F_0.1(majority-3-of-5) = 0.0086
}

// ExampleIsNonDominated checks the classical domination facts.
func ExampleIsNonDominated() {
	majority, _ := qp.IsNonDominated(qp.Majority(5, 3))
	grid, _ := qp.IsNonDominated(qp.Grid(2))
	fmt.Println(majority)
	fmt.Println(grid)
	// Output:
	// true
	// false
}

// ExampleRelayFactor measures the Lemma 3.1 detour factor of a placement.
func ExampleRelayFactor() {
	g := qp.Path(5)
	m, _ := qp.NewMetricFromGraph(g)
	sys := qp.Majority(4, 3)
	caps := []float64{0.75, 0.75, 0.75, 0.75, 0.75}
	ins, _ := qp.NewInstance(m, caps, sys, qp.Uniform(sys.NumQuorums()))
	p := qp.NewPlacement([]int{0, 1, 2, 3})
	factor, _ := qp.RelayFactor(ins, p)
	fmt.Printf("relay factor %.3f ≤ 5\n", factor)
	// Output:
	// relay factor 1.235 ≤ 5
}

// ExampleRunSim validates the analytic delay with the simulator.
func ExampleRunSim() {
	g := qp.Path(4)
	m, _ := qp.NewMetricFromGraph(g)
	sys := qp.Majority(3, 2)
	caps := []float64{1, 1, 1, 1}
	ins, _ := qp.NewInstance(m, caps, sys, qp.Uniform(sys.NumQuorums()))
	p := qp.NewPlacement([]int{0, 1, 2})
	stats, _ := qp.RunSim(qp.SimConfig{
		Instance: ins, Placement: p, Mode: qp.SimParallel,
		AccessesPerClient: 50000, Seed: 1,
	})
	analytic := ins.AvgMaxDelay(p)
	fmt.Printf("analytic %.4f, sampled within 2%%: %v\n",
		analytic, stats.AvgLatency > 0.98*analytic && stats.AvgLatency < 1.02*analytic)
	// Output:
	// analytic 1.7500, sampled within 2%: true
}

// ExampleGiffordVoting builds a read/write system and places its combined
// form.
func ExampleGiffordVoting() {
	rw := qp.GiffordVoting(5, 2, 4)
	sys, st, _ := rw.Combine(0.9)
	fmt.Printf("%d read + %d write quorums, combined max load %.4f\n",
		rw.NumReadQuorums(), rw.NumWriteQuorums(), mustMaxLoad(sys, st))
	// Output:
	// 10 read + 5 write quorums, combined max load 0.4400
}

func mustMaxLoad(sys *qp.System, st qp.Strategy) float64 {
	l, err := sys.MaxLoad(st)
	if err != nil {
		panic(err)
	}
	return l
}

// ExampleParseEdgeList feeds a measured topology to the solvers.
func ExampleParseEdgeList() {
	input := `# two data centers joined by a WAN link
nodes 4
0 1 1
2 3 1
1 2 20
`
	g, _ := qp.ParseEdgeList(strings.NewReader(input))
	m, _ := qp.NewMetricFromGraph(g)
	fmt.Printf("d(0,3) = %v\n", m.D(0, 3))
	// Output:
	// d(0,3) = 22
}
