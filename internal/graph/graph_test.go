package graph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndAddEdge(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("New(3) = n=%d m=%d, want 3, 0", g.N(), g.M())
	}
	if err := g.AddEdge(0, 1, 2.5); err != nil {
		t.Fatalf("AddEdge(0,1,2.5) = %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees = %d,%d,%d, want 1,1,0", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	cases := []struct {
		name    string
		u, v    int
		length  float64
		wantErr string
	}{
		{"out of range u", -1, 0, 1, "out of range"},
		{"out of range v", 0, 3, 1, "out of range"},
		{"self loop", 1, 1, 1, "self-loop"},
		{"zero length", 0, 1, 0, "non-positive"},
		{"negative length", 0, 1, -2, "non-positive"},
		{"NaN length", 0, 1, math.NaN(), "non-positive"},
		{"Inf length", 0, 1, math.Inf(1), "non-positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := g.AddEdge(tc.u, tc.v, tc.length)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("AddEdge(%d,%d,%v) = %v, want error containing %q", tc.u, tc.v, tc.length, err, tc.wantErr)
			}
		})
	}
}

func TestConnected(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(0), true},
		{"single", New(1), true},
		{"two isolated", New(2), false},
		{"path", Path(5), true},
		{"cycle", Cycle(4), true},
		{"star", Star(6), true},
		{"grid", Grid2D(3, 4), true},
		{"broom", Broom(3), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Connected(); got != tc.want {
				t.Fatalf("Connected() = %v, want %v", got, tc.want)
			}
		})
	}
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if g.Connected() {
		t.Fatal("two-component graph reported connected")
	}
}

func TestShortestPathsPath(t *testing.T) {
	g := Path(5)
	d := g.ShortestPathsFrom(0)
	for i, want := range []float64{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("d(0,%d) = %v, want %v", i, d[i], want)
		}
	}
	d = g.ShortestPathsFrom(2)
	for i, want := range []float64{2, 1, 0, 1, 2} {
		if d[i] != want {
			t.Errorf("d(2,%d) = %v, want %v", i, d[i], want)
		}
	}
}

func TestShortestPathsWeighted(t *testing.T) {
	// Triangle where the direct edge is longer than the two-hop route.
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 5)
	d := g.ShortestPathsFrom(0)
	if d[2] != 2 {
		t.Fatalf("d(0,2) = %v, want 2 (via middle vertex)", d[2])
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	d := g.ShortestPathsFrom(0)
	if !math.IsInf(d[2], 1) {
		t.Fatalf("d(0,2) = %v, want +Inf", d[2])
	}
}

func TestMetricFromGraphDisconnected(t *testing.T) {
	g := New(2)
	if _, err := NewMetricFromGraph(g); err != ErrDisconnected {
		t.Fatalf("NewMetricFromGraph(disconnected) = %v, want ErrDisconnected", err)
	}
}

func TestMetricFromMatrixValidation(t *testing.T) {
	cases := []struct {
		name string
		d    [][]float64
		ok   bool
	}{
		{"valid", [][]float64{{0, 1}, {1, 0}}, true},
		{"ragged", [][]float64{{0, 1}, {1}}, false},
		{"nonzero diagonal", [][]float64{{1, 1}, {1, 0}}, false},
		{"asymmetric", [][]float64{{0, 1}, {2, 0}}, false},
		{"negative", [][]float64{{0, -1}, {-1, 0}}, false},
		{"triangle violation", [][]float64{{0, 1, 5}, {1, 0, 1}, {5, 1, 0}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMetricFromMatrix(tc.d)
			if (err == nil) != tc.ok {
				t.Fatalf("NewMetricFromMatrix = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestMetricBasics(t *testing.T) {
	m, err := NewMetricFromGraph(Path(4))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 4 {
		t.Fatalf("N() = %d, want 4", m.N())
	}
	if m.D(0, 3) != 3 || m.D(3, 0) != 3 {
		t.Fatalf("D(0,3) = %v, D(3,0) = %v, want 3, 3", m.D(0, 3), m.D(3, 0))
	}
	// Avg dist to vertex 1 on the path 0-1-2-3 is (1+0+1+2)/4 = 1.
	if got := m.AvgDistTo(1); got != 1 {
		t.Fatalf("AvgDistTo(1) = %v, want 1", got)
	}
}

func TestNodesByDistance(t *testing.T) {
	m, err := NewMetricFromGraph(Path(5))
	if err != nil {
		t.Fatal(err)
	}
	got := m.NodesByDistance(2)
	want := []int{2, 1, 3, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodesByDistance(2) = %v, want %v", got, want)
		}
	}
	// The ordering must always start at the source and be nondecreasing.
	for src := 0; src < 5; src++ {
		ord := m.NodesByDistance(src)
		if ord[0] != src {
			t.Fatalf("NodesByDistance(%d)[0] = %d, want %d", src, ord[0], src)
		}
		for i := 1; i < len(ord); i++ {
			if m.D(src, ord[i-1]) > m.D(src, ord[i]) {
				t.Fatalf("NodesByDistance(%d) not sorted: %v", src, ord)
			}
		}
	}
}

func TestGeneratorSizes(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"path", Path(6), 6, 5},
		{"cycle", Cycle(6), 6, 6},
		{"complete", Complete(5), 5, 10},
		{"star", Star(7), 7, 6},
		{"grid 3x4", Grid2D(3, 4), 12, 17},
		{"broom k=3", Broom(3), 9, 8},
		{"broom k=4", Broom(4), 16, 15},
		{"star long edge", StarWithLongEdge(6, 100), 6, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n || tc.g.M() != tc.m {
				t.Fatalf("n=%d m=%d, want n=%d m=%d", tc.g.N(), tc.g.M(), tc.n, tc.m)
			}
		})
	}
}

// TestBroomDistanceProfile checks the Claim A.1 distance profile: from v0
// there are n-k vertices at distance 1 and one vertex at each of the
// distances 2..k, where n = k².
func TestBroomDistanceProfile(t *testing.T) {
	for k := 2; k <= 6; k++ {
		g := Broom(k)
		n := k * k
		d := g.ShortestPathsFrom(0)
		count := map[float64]int{}
		for v := 1; v < n; v++ {
			count[d[v]]++
		}
		if count[1] != n-k {
			t.Errorf("k=%d: %d vertices at distance 1, want %d", k, count[1], n-k)
		}
		for dist := 2; dist <= k; dist++ {
			if count[float64(dist)] != 1 {
				t.Errorf("k=%d: %d vertices at distance %d, want 1", k, count[float64(dist)], dist)
			}
		}
	}
}

func TestStarWithLongEdgeProfile(t *testing.T) {
	g := StarWithLongEdge(5, 50)
	d := g.ShortestPathsFrom(0)
	for v := 1; v < 4; v++ {
		if d[v] != 1 {
			t.Errorf("d(0,%d) = %v, want 1", v, d[v])
		}
	}
	if d[4] != 50 {
		t.Errorf("d(0,4) = %v, want 50", d[4])
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		g    *Graph
	}{
		{"random tree", RandomTree(20, 1, 5, rng)},
		{"erdos renyi", ErdosRenyiConnected(15, 0.2, 1, 3, rng)},
		{"geometric", RandomGeometric(25, 0.25, rng)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.g.Connected() {
				t.Fatal("generator produced a disconnected graph")
			}
			if _, err := NewMetricFromGraph(tc.g); err != nil {
				t.Fatalf("metric: %v", err)
			}
		})
	}
}

func TestRandomTreeEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 10; n++ {
		g := RandomTree(n, 1, 1, rng)
		if g.M() != n-1 && n > 0 {
			if !(n == 1 && g.M() == 0) {
				t.Fatalf("RandomTree(%d) has %d edges, want %d", n, g.M(), n-1)
			}
		}
	}
}

// TestMetricAxiomsProperty verifies symmetry, identity, and the triangle
// inequality hold for shortest-path metrics of random connected graphs.
func TestMetricAxiomsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(12)
		g := ErdosRenyiConnected(n, 0.3, 0.5, 4, r)
		m, err := NewMetricFromGraph(g)
		if err != nil {
			return false
		}
		return m.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDijkstraMatchesFloydWarshall cross-checks Dijkstra against an
// independent Floyd–Warshall implementation on random graphs.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(10)
		g := ErdosRenyiConnected(n, 0.4, 0.1, 9, rng)
		m, err := NewMetricFromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		fw := floydWarshall(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(m.D(i, j)-fw[i][j]) > 1e-9 {
					t.Fatalf("trial %d: d(%d,%d): dijkstra=%v floyd=%v", trial, i, j, m.D(i, j), fw[i][j])
				}
			}
		}
	}
}

func floydWarshall(g *Graph) [][]float64 {
	n := g.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			if e.Length < d[u][e.To] {
				d[u][e.To] = e.Length
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}
