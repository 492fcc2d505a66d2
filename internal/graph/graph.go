// Package graph provides weighted undirected graphs, shortest-path metrics,
// and the topology generators used throughout the quorum-placement library.
//
// The paper's network model (§1.2) is an undirected graph G = (V, E) with a
// positive length on each edge, inducing a shortest-path distance function
// d : V × V → R+. This package computes that metric exactly (Dijkstra from
// every source) and exposes it as a Metric value that the placement
// algorithms consume. It also provides the adversarial constructions from
// Appendix A (the star-with-long-edge and the Figure-1 "broom" graph).
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Graph is a weighted undirected multigraph on vertices 0..n-1.
// The zero value is an empty graph with no vertices; use New to create a
// graph with a fixed vertex count.
type Graph struct {
	n   int
	adj [][]Edge
	m   int
}

// Edge is a directed representation of an undirected edge: it records the
// neighbor reached and the positive length of the edge.
type Edge struct {
	To     int
	Length float64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge adds an undirected edge between u and v with the given positive
// length. Self-loops are rejected because they never affect shortest paths
// and usually indicate a construction bug.
func (g *Graph) AddEdge(u, v int, length float64) error {
	switch {
	case u < 0 || u >= g.n || v < 0 || v >= g.n:
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	case u == v:
		return fmt.Errorf("graph: self-loop at %d", u)
	case length <= 0 || math.IsNaN(length) || math.IsInf(length, 0):
		return fmt.Errorf("graph: edge (%d,%d) has non-positive or non-finite length %v", u, v, length)
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, Length: length})
	g.adj[v] = append(g.adj[v], Edge{To: u, Length: length})
	g.m++
	return nil
}

// MustAddEdge is AddEdge but panics on error. It is intended for the
// generators in this package, whose arguments are statically valid.
func (g *Graph) MustAddEdge(u, v int, length float64) {
	if err := g.AddEdge(u, v, length); err != nil {
		panic(err)
	}
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Degree returns the number of incident edge endpoints at u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// ErrDisconnected is returned by metric computations on graphs where some
// pair of vertices has no connecting path.
var ErrDisconnected = errors.New("graph: graph is not connected")

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.n
}

// ShortestPathsFrom runs Dijkstra's algorithm from src and returns the
// distance to every vertex. Unreachable vertices get +Inf. Callers running
// many sources should go through NewMetricFromGraph, whose workers reuse one
// workspace per core instead of allocating per source.
func (g *Graph) ShortestPathsFrom(src int) []float64 {
	if src < 0 || src >= g.n {
		panic(fmt.Sprintf("graph: source %d out of range [0,%d)", src, g.n))
	}
	dist := make([]float64, g.n)
	g.shortestPathsInto(src, dist, newIndexedHeap(g.n))
	return dist
}

// IsTree reports whether the graph is a tree: non-empty, connected, with
// exactly n−1 edges. Tree instances admit the exact near-linear placement
// fast path (package treedp) without materializing any n² metric.
func (g *Graph) IsTree() bool {
	return g.n >= 1 && g.m == g.n-1 && g.Connected()
}

// Metric is a finite metric space on points 0..n-1, typically the
// shortest-path closure of a Graph. Distances are symmetric with zero
// diagonal and satisfy the triangle inequality. The n×n matrix is stored
// row-major in one backing slice: one allocation, cache-contiguous row
// scans, and Row views carved by re-slicing.
type Metric struct {
	n int
	d []float64 // row-major, d[u*n+v] = d(u, v)
}

// NewMetricFromGraph computes the all-pairs shortest-path metric of g,
// fanning the per-source Dijkstra runs across cores with one reusable
// workspace per worker (see apspInto). It returns ErrDisconnected if any
// pair of vertices is unreachable.
func NewMetricFromGraph(g *Graph) (*Metric, error) {
	d := make([]float64, g.n*g.n)
	if !g.apspInto(d) {
		return nil, ErrDisconnected
	}
	return &Metric{n: g.n, d: d}, nil
}

// NewMetricFromMatrix builds a Metric from an explicit distance matrix,
// validating symmetry, zero diagonal, non-negativity and the triangle
// inequality. The matrix is copied.
func NewMetricFromMatrix(d [][]float64) (*Metric, error) {
	n := len(d)
	flat := make([]float64, n*n)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("graph: distance matrix row %d has length %d, want %d", i, len(d[i]), n)
		}
		copy(flat[i*n:(i+1)*n], d[i])
	}
	m := &Metric{n: n, d: flat}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// metricTol is the relative tolerance used when validating metric axioms on
// explicitly supplied matrices (floating-point closures of exact metrics).
const metricTol = 1e-9

// Triangle-inequality checking is cubic in n; above validateExactLimit,
// Validate switches from the exhaustive scan to a fixed-seed random sample
// of triples (the quadratic symmetry and finiteness checks always run in
// full). The seed is a constant so Validate stays deterministic.
const (
	validateExactLimit     = 128
	validateSampledTriples = 1 << 20
	validateSampleSeed     = 0x71C5
)

// Validate checks the metric axioms and returns a descriptive error for the
// first violation found. Symmetry, finiteness and the zero diagonal are
// always checked exhaustively; the triangle inequality is exhaustive up to
// validateExactLimit points and sampled (seeded, deterministic) beyond it,
// keeping NewMetricFromMatrix usable at large n.
func (m *Metric) Validate() error {
	for i := 0; i < m.n; i++ {
		if m.D(i, i) != 0 {
			return fmt.Errorf("graph: d(%d,%d) = %v, want 0", i, i, m.D(i, i))
		}
		for j := 0; j < m.n; j++ {
			if m.D(i, j) < 0 || math.IsNaN(m.D(i, j)) || math.IsInf(m.D(i, j), 0) {
				return fmt.Errorf("graph: d(%d,%d) = %v is not a finite non-negative value", i, j, m.D(i, j))
			}
			if math.Abs(m.D(i, j)-m.D(j, i)) > metricTol*(1+math.Abs(m.D(i, j))) {
				return fmt.Errorf("graph: asymmetric distances d(%d,%d)=%v, d(%d,%d)=%v", i, j, m.D(i, j), j, i, m.D(j, i))
			}
		}
	}
	if m.n <= validateExactLimit {
		return m.validateTrianglesExact()
	}
	return m.validateTrianglesSampled(validateSampledTriples, validateSampleSeed)
}

// checkTriangle verifies d(i,j) ≤ d(i,k) + d(k,j) up to tolerance.
func (m *Metric) checkTriangle(i, j, k int) error {
	if m.D(i, j) > m.D(i, k)+m.D(k, j)+metricTol*(1+m.D(i, j)) {
		return fmt.Errorf("graph: triangle inequality violated: d(%d,%d)=%v > d(%d,%d)+d(%d,%d)=%v",
			i, j, m.D(i, j), i, k, k, j, m.D(i, k)+m.D(k, j))
	}
	return nil
}

func (m *Metric) validateTrianglesExact() error {
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			for k := 0; k < m.n; k++ {
				if err := m.checkTriangle(i, j, k); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (m *Metric) validateTrianglesSampled(samples int, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	for s := 0; s < samples; s++ {
		if err := m.checkTriangle(r.Intn(m.n), r.Intn(m.n), r.Intn(m.n)); err != nil {
			return err
		}
	}
	return nil
}

// N returns the number of points.
func (m *Metric) N() int { return m.n }

// D returns the distance between points u and v.
func (m *Metric) D(u, v int) float64 { return m.d[u*m.n+v] }

// Row returns the distances from src to every point as a view into the
// metric's backing storage. The returned slice is owned by the metric and
// must not be modified (the full-slice expression keeps appends from
// spilling into the next row).
func (m *Metric) Row(src int) []float64 {
	lo, hi := src*m.n, (src+1)*m.n
	return m.d[lo:hi:hi]
}

// AvgDistTo returns the average distance from all points to v, the quantity
// Avg_{v'∈V} d(v', v) used by the total-delay reduction (§5) and by
// Lemma 3.1's relay analysis. It strides down column v rather than scanning
// row v: the two differ only by float rounding of symmetric Dijkstra runs,
// but downstream tie-breaking pins the exact column values.
func (m *Metric) AvgDistTo(v int) float64 {
	sum := 0.0
	for u := 0; u < m.n; u++ {
		sum += m.d[u*m.n+v]
	}
	return sum / float64(m.n)
}

// NodesByDistance returns the vertex indices sorted by increasing distance
// from src (src itself first), tie-broken by index. This is the ordering
// v_0, v_1, ..., v_{n-1} with d_0 ≤ d_1 ≤ ... used by the SSQPP LP (§3.3).
func (m *Metric) NodesByDistance(src int) []int {
	order := make([]int, m.n)
	for i := range order {
		order[i] = i
	}
	row := m.Row(src)
	sort.SliceStable(order, func(a, b int) bool {
		if row[order[a]] != row[order[b]] {
			return row[order[a]] < row[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}
