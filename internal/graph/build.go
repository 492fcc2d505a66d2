package graph

import (
	"errors"
	"fmt"
)

// DefaultDenseLimit is the largest vertex count for which BuildMetric will
// materialize the dense n² distance matrix (128 MiB of float64 at the
// default).
const DefaultDenseLimit = 4096

// ErrMetricTooLarge is returned (wrapped) by BuildMetric when the graph
// exceeds the dense limit: beyond it a caller must opt into an explicit
// scalable representation instead of silently paying n² memory.
var ErrMetricTooLarge = errors.New("graph: dense metric would exceed the size limit")

// BuildMetric is the auto-selecting metric constructor: up to the dense
// limit it computes the exact all-pairs metric with the parallel build;
// beyond it, it refuses with ErrMetricTooLarge rather than allocating n²
// floats behind the caller's back, directing them to the scalable paths —
// NewLandmarkMetric for approximate distance queries, or the treedp tree
// fast path, which needs no materialized metric at all.
func BuildMetric(g *Graph) (*Metric, error) {
	if g.N() > DefaultDenseLimit {
		return nil, fmt.Errorf("%w: %d vertices > limit %d (use NewLandmarkMetric, or SolveQPPTree on trees)",
			ErrMetricTooLarge, g.N(), DefaultDenseLimit)
	}
	return NewMetricFromGraph(g)
}
