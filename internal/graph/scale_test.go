package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The parallel all-pairs build must reproduce the sequential per-source
// Dijkstra output bit for bit: rows are independent runs of the same
// algorithm, only scheduled differently.
func TestParallelMetricMatchesPerSourceDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := map[string]*Graph{
		"tree":      RandomTree(97, 0.5, 2.0, rng),
		"geometric": RandomGeometric(80, 0.35, rng),
		"broom":     Broom(6),
		"grid":      Grid2D(9, 7),
	}
	for name, g := range graphs {
		m, err := NewMetricFromGraph(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := 0; v < g.N(); v++ {
			want := g.ShortestPathsFrom(v)
			row := m.Row(v)
			for u := range want {
				if row[u] != want[u] {
					t.Fatalf("%s: d(%d,%d) = %v, sequential Dijkstra gives %v", name, v, u, row[u], want[u])
				}
			}
		}
	}
}

// A disconnected graph big enough to exercise the multi-worker path must
// still report ErrDisconnected.
func TestParallelMetricDisconnected(t *testing.T) {
	g := New(120)
	for v := 1; v < 60; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	for v := 61; v < 120; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	if _, err := NewMetricFromGraph(g); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("got %v, want ErrDisconnected", err)
	}
}

// Reusing one workspace across sources must leave no state behind: running
// the same source twice through a shared heap and dist slice gives
// identical rows.
func TestWorkspaceReuseIsStateless(t *testing.T) {
	g := RandomGeometric(60, 0.4, rand.New(rand.NewSource(3)))
	h := newIndexedHeap(g.N())
	a := make([]float64, g.N())
	b := make([]float64, g.N())
	g.shortestPathsInto(17, a, h)
	g.shortestPathsInto(42, b, h) // dirty the workspace
	g.shortestPathsInto(17, b, h)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("d(17,%d) changed from %v to %v after workspace reuse", v, a[v], b[v])
		}
	}
}

func TestIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if !Path(10).IsTree() || !Star(8).IsTree() || !RandomTree(200, 1, 2, rng).IsTree() || !Broom(5).IsTree() {
		t.Fatal("path/star/random tree/broom must be trees")
	}
	if !New(1).IsTree() {
		t.Fatal("a single vertex is a tree")
	}
	if New(0).IsTree() {
		t.Fatal("the empty graph is not a tree")
	}
	if Cycle(5).IsTree() {
		t.Fatal("a cycle is not a tree")
	}
	// n−1 edges but disconnected: a triangle plus an isolated vertex.
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	if g.IsTree() {
		t.Fatal("disconnected graph with n-1 edges is not a tree")
	}
}

// Validate pins both triangle-check modes: the exhaustive scan below the
// size threshold and the seeded sample above it. The planted large-n
// violation is dense (every triple through node 0 violates), so the sampled
// check finds it deterministically.
func TestValidateTriangleModes(t *testing.T) {
	// Exact mode: a single planted violation in a small matrix is caught.
	small := [][]float64{
		{0, 1, 1},
		{1, 0, 10}, // d(1,2)=10 > d(1,0)+d(0,2)=2
		{1, 10, 0},
	}
	if _, err := NewMetricFromMatrix(small); err == nil {
		t.Fatal("exact mode missed a planted triangle violation")
	}

	// Sampled mode: n above the exact limit. All off-diagonal distances 3,
	// but node 0 is at distance 1 from everyone, so d(i,j)=3 > 1+1 for every
	// i,j ≥ 1: any sampled triple with k=0 witnesses the violation.
	n := validateExactLimit + 72
	bad := make([][]float64, n)
	for i := range bad {
		bad[i] = make([]float64, n)
		for j := range bad[i] {
			switch {
			case i == j:
			case i == 0 || j == 0:
				bad[i][j] = 1
			default:
				bad[i][j] = 3
			}
		}
	}
	if _, err := NewMetricFromMatrix(bad); err == nil {
		t.Fatal("sampled mode missed a dense triangle violation")
	}

	// Sampled mode accepts a genuine shortest-path metric of the same size.
	g := RandomTree(n, 0.5, 2.0, rand.New(rand.NewSource(11)))
	m, err := NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	if _, err := NewMetricFromMatrix(rows); err != nil {
		t.Fatalf("sampled mode rejected a valid metric: %v", err)
	}
	// Direct mode pinning: each checker sees the planted violation.
	badm := &Metric{n: 3, d: []float64{0, 1, 1, 1, 0, 10, 1, 10, 0}}
	if badm.validateTrianglesExact() == nil {
		t.Fatal("validateTrianglesExact missed the violation")
	}
	wide := &Metric{n: n, d: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wide.d[i*n+j] = bad[i][j]
		}
	}
	if wide.validateTrianglesSampled(validateSampledTriples, validateSampleSeed) == nil {
		t.Fatal("validateTrianglesSampled missed the dense violation")
	}
}

func TestLandmarkMetricBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomGeometric(150, 0.3, rng)
	lm, err := NewLandmarkMetric(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if lm.K() != 16 || lm.N() != 150 {
		t.Fatalf("k=%d n=%d", lm.K(), lm.N())
	}
	// Landmarks must be distinct.
	seen := map[int]bool{}
	for _, l := range lm.Landmarks() {
		if seen[l] {
			t.Fatalf("duplicate landmark %d", l)
		}
		seen[l] = true
	}
	// Pairs involving a landmark are exact.
	for _, l := range lm.Landmarks()[:4] {
		want := g.ShortestPathsFrom(l)
		for v := 0; v < g.N(); v++ {
			if math.Abs(lm.Upper(l, v)-want[v]) > 1e-9*(1+want[v]) {
				t.Fatalf("Upper(%d,%d)=%v, exact %v", l, v, lm.Upper(l, v), want[v])
			}
			if math.Abs(lm.Lower(l, v)-want[v]) > 1e-9*(1+want[v]) {
				t.Fatalf("Lower(%d,%d)=%v, exact %v", l, v, lm.Lower(l, v), want[v])
			}
		}
	}
	// The sandwich holds on sampled pairs and the stretch is finite.
	stretch, err := lm.ValidateSampled(g, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stretch < 1 || math.IsInf(stretch, 0) || math.IsNaN(stretch) {
		t.Fatalf("stretch %v", stretch)
	}
}

func TestLandmarkMetricDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := NewLandmarkMetric(g, 2); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("got %v, want ErrDisconnected", err)
	}
}

func TestBuildMetricAuto(t *testing.T) {
	g := Broom(5)
	m, err := BuildMetric(g)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewMetricFromGraph(g)
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if m.D(i, j) != want.D(i, j) {
				t.Fatalf("BuildMetric differs from NewMetricFromGraph at (%d,%d)", i, j)
			}
		}
	}
	if _, err := BuildMetric(Path(DefaultDenseLimit + 1)); !errors.Is(err, ErrMetricTooLarge) {
		t.Fatalf("got %v, want ErrMetricTooLarge", err)
	}
}
