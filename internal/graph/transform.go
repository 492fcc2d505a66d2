package graph

import "fmt"

// Scale returns a copy of g with every edge length multiplied by factor.
// Shortest-path distances scale by exactly the same factor, so delay
// objectives are homogeneous under Scale — a property the placement tests
// verify end-to-end.
func Scale(g *Graph, factor float64) *Graph {
	if factor <= 0 {
		panic(fmt.Sprintf("graph: scale factor %v must be positive", factor))
	}
	out := New(g.N())
	for u := 0; u < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if u < e.To {
				out.MustAddEdge(u, e.To, e.Length*factor)
			}
		}
	}
	return out
}
