package graph

import (
	"fmt"
	"math"
	"math/rand"

	"quorumplace/internal/obs"
)

// LandmarkMetric approximates shortest-path distances on graphs too large
// for the dense n² matrix. It stores the exact distance vectors of k
// landmark vertices (k·n floats instead of n²), chosen by farthest-point
// traversal so the landmarks cover the graph like a 2-approximate k-center
// solution. The triangle inequality then sandwiches every distance:
//
//	Lower(u,v) = max_ℓ |d(ℓ,u) − d(ℓ,v)|  ≤  d(u,v)  ≤  min_ℓ d(ℓ,u)+d(ℓ,v) = Upper(u,v)
//
// Both bounds are exact on any pair involving a landmark, and Upper is exact
// whenever some landmark lies on a shortest u–v path. ValidateSampled
// certifies the sandwich and measures the realized stretch on seeded sampled
// pairs against freshly computed exact distances.
type LandmarkMetric struct {
	n         int
	landmarks []int
	rows      []float64 // row-major k×n: rows[i*n+v] = d(landmarks[i], v)
}

// NewLandmarkMetric builds a landmark metric with k landmarks (clamped to
// [1, n]). The first landmark is vertex 0; each subsequent one is the vertex
// farthest from the chosen set, ties broken toward the smaller index, so the
// construction is deterministic. Returns ErrDisconnected if any vertex is
// unreachable.
func NewLandmarkMetric(g *Graph, k int) (*LandmarkMetric, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("graph: landmark metric of an empty graph")
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	sp := obs.Start("graph.landmark_build")
	defer sp.End()
	lm := &LandmarkMetric{n: n, landmarks: make([]int, 0, k), rows: make([]float64, k*n)}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	h := newIndexedHeap(n)
	cur := 0
	for i := 0; i < k; i++ {
		lm.landmarks = append(lm.landmarks, cur)
		row := lm.rows[i*n : (i+1)*n]
		g.shortestPathsInto(cur, row, h)
		for v, dv := range row {
			if math.IsInf(dv, 1) {
				return nil, ErrDisconnected
			}
			if dv < minDist[v] {
				minDist[v] = dv
			}
		}
		next, far := 0, -1.0
		for v, dv := range minDist {
			if dv > far {
				far, next = dv, v
			}
		}
		cur = next
	}
	obs.Gauge("metric.landmarks", float64(k))
	return lm, nil
}

// N returns the number of vertices the metric covers.
func (lm *LandmarkMetric) N() int { return lm.n }

// K returns the number of landmarks.
func (lm *LandmarkMetric) K() int { return len(lm.landmarks) }

// Landmarks returns a copy of the landmark vertex ids.
func (lm *LandmarkMetric) Landmarks() []int {
	return append([]int(nil), lm.landmarks...)
}

// Upper returns the landmark upper bound min_ℓ d(ℓ,u)+d(ℓ,v) ≥ d(u,v).
func (lm *LandmarkMetric) Upper(u, v int) float64 {
	if u == v {
		return 0
	}
	best := math.Inf(1)
	for i := range lm.landmarks {
		if s := lm.rows[i*lm.n+u] + lm.rows[i*lm.n+v]; s < best {
			best = s
		}
	}
	return best
}

// Lower returns the landmark lower bound max_ℓ |d(ℓ,u)−d(ℓ,v)| ≤ d(u,v).
func (lm *LandmarkMetric) Lower(u, v int) float64 {
	if u == v {
		return 0
	}
	best := 0.0
	for i := range lm.landmarks {
		if d := math.Abs(lm.rows[i*lm.n+u] - lm.rows[i*lm.n+v]); d > best {
			best = d
		}
	}
	return best
}

// ValidateSampled draws source vertices with the seeded generator,
// recomputes their exact distance vectors, and checks every induced pair
// against the sandwich Lower ≤ d ≤ Upper. It returns the maximum observed
// stretch Upper(u,v)/d(u,v) over sampled pairs with d > 0, or an error if a
// bound is violated beyond floating-point tolerance (which would indicate a
// broken build, not approximation error).
func (lm *LandmarkMetric) ValidateSampled(g *Graph, sources int, seed int64) (float64, error) {
	if g.N() != lm.n {
		return 0, fmt.Errorf("graph: landmark metric covers %d vertices, graph has %d", lm.n, g.N())
	}
	if sources < 1 {
		sources = 1
	}
	r := rand.New(rand.NewSource(seed))
	dist := make([]float64, lm.n)
	h := newIndexedHeap(lm.n)
	maxStretch := 1.0
	for s := 0; s < sources; s++ {
		u := r.Intn(lm.n)
		g.shortestPathsInto(u, dist, h)
		for v := 0; v < lm.n; v++ {
			d := dist[v]
			tol := metricTol * (1 + d)
			if lo := lm.Lower(u, v); lo > d+tol {
				return 0, fmt.Errorf("graph: landmark lower bound %v exceeds d(%d,%d)=%v", lo, u, v, d)
			}
			hi := lm.Upper(u, v)
			if hi < d-tol {
				return 0, fmt.Errorf("graph: landmark upper bound %v below d(%d,%d)=%v", hi, u, v, d)
			}
			if d > 0 && hi/d > maxStretch {
				maxStretch = hi / d
			}
		}
	}
	return maxStretch, nil
}
