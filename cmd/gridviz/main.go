// Command gridviz renders the §4.1 optimal Grid layout as the Figure-2
// style matrix: it builds a network, runs the L-shell single-source layout,
// and prints the k×k distance matrix with its shell structure, alongside a
// comparison with the naive row-major layout.
//
// Usage:
//
//	gridviz [-k 4] [-nodes 30] [-seed 1] [-v0 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	qp "quorumplace"
	"quorumplace/internal/placement"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gridviz: ")
	k := flag.Int("k", 4, "grid dimension (universe k²)")
	nodes := flag.Int("nodes", 30, "network size")
	seed := flag.Int64("seed", 1, "random seed")
	v0 := flag.Int("v0", 0, "source node for the single-source layout")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	g := qp.RandomGeometric(*nodes, 0.35, rng)
	m, err := qp.NewMetricFromGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := qp.ParseSystem(fmt.Sprintf("grid:%d", *k))
	if err != nil {
		log.Fatal(err)
	}
	load := float64(2**k-1) / float64(*k**k)
	caps := make([]float64, *nodes)
	for i := range caps {
		caps[i] = load
	}
	ins, err := qp.NewInstance(m, caps, sys, qp.Uniform(sys.NumQuorums()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := placement.SolveGridSSQPP(ins, *v0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("optimal %dx%d grid layout from v0=%d (Theorem B.1 / Figure 2)\n", *k, *k, *v0)
	fmt.Printf("distances from v0 placed in L-shells, largest in the top-left:\n\n")
	printMatrix(res.Matrix)
	fmt.Printf("\nΔ_f(v0) = %.4g  (average over the k² quorums of each quorum's max distance)\n", res.Delay)

	// Row-major comparison.
	rm := make([][]float64, *k)
	for i := range rm {
		rm[i] = make([]float64, *k)
		copy(rm[i], res.Taus[i**k:(i+1)**k])
	}
	fmt.Printf("row-major layout of the same distances would cost %.4g\n", placement.GridLayoutCost(rm))
}

func printMatrix(m [][]float64) {
	k := len(m)
	width := 1
	for _, row := range m {
		for _, v := range row {
			if w := len(fmt.Sprintf("%.3g", v)); w > width {
				width = w
			}
		}
	}
	for i := 0; i < k; i++ {
		var b strings.Builder
		for j := 0; j < k; j++ {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width, fmt.Sprintf("%.3g", m[i][j]))
		}
		fmt.Println("  " + b.String())
	}
}
