package graph

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := ErdosRenyiConnected(4+rng.Intn(10), 0.3, 0.5, 5, rng)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ParseEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d", g.N(), g.M(), g2.N(), g2.M())
		}
		// Metrics must agree exactly.
		m1, err := NewMetricFromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := NewMetricFromGraph(g2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.N(); i++ {
			for j := 0; j < g.N(); j++ {
				if m1.D(i, j) != m2.D(i, j) {
					t.Fatalf("round trip changed d(%d,%d): %v -> %v", i, j, m1.D(i, j), m2.D(i, j))
				}
			}
		}
	}
}

func TestParseEdgeListComments(t *testing.T) {
	in := `# a WAN
nodes 3

0 1 2.5
# bridge
1 2 1
`
	g, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed n=%d m=%d, want 3, 2", g.N(), g.M())
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"no header", "0 1 2\n"},
		{"bad count", "nodes x\n"},
		{"negative count", "nodes -1\n"},
		{"short edge", "nodes 2\n0 1\n"},
		{"bad vertex", "nodes 2\na 1 1\n"},
		{"bad vertex 2", "nodes 2\n0 b 1\n"},
		{"bad length", "nodes 2\n0 1 x\n"},
		{"edge out of range", "nodes 2\n0 5 1\n"},
		{"self loop", "nodes 2\n1 1 1\n"},
		{"zero length", "nodes 2\n0 1 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Fatal("invalid input accepted")
			}
		})
	}
}

func TestHypercube(t *testing.T) {
	for d := 0; d <= 5; d++ {
		g := Hypercube(d)
		n := 1 << uint(d)
		if g.N() != n {
			t.Fatalf("d=%d: n=%d, want %d", d, g.N(), n)
		}
		if g.M() != d*n/2 {
			t.Fatalf("d=%d: m=%d, want %d", d, g.M(), d*n/2)
		}
		if n > 1 && !g.Connected() {
			t.Fatalf("d=%d: disconnected", d)
		}
	}
	// Distance = Hamming distance.
	g := Hypercube(4)
	m, err := NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 16; u++ {
		for v := 0; v < 16; v++ {
			h := 0
			for x := u ^ v; x != 0; x &= x - 1 {
				h++
			}
			if m.D(u, v) != float64(h) {
				t.Fatalf("d(%d,%d) = %v, want hamming %d", u, v, m.D(u, v), h)
			}
		}
	}
}

func TestRingOfCliques(t *testing.T) {
	g := RingOfCliques(3, 4, 10)
	if g.N() != 12 {
		t.Fatalf("n = %d, want 12", g.N())
	}
	// 3 cliques of C(4,2)=6 edges + 3 bridges.
	if g.M() != 3*6+3 {
		t.Fatalf("m = %d, want 21", g.M())
	}
	if !g.Connected() {
		t.Fatal("disconnected")
	}
	m, err := NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	// Within a clique: distance 1; across adjacent cliques ≥ bridge.
	if m.D(0, 1) != 1 {
		t.Fatalf("intra-clique distance %v, want 1", m.D(0, 1))
	}
	if m.D(1, 5) < 10 {
		t.Fatalf("inter-clique distance %v, want ≥ 10", m.D(1, 5))
	}
}

// TestEdgeListRoundTripProperty: quick-checked round trip on random trees.
func TestEdgeListRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomTree(2+rng.Intn(15), 0.5, 9, rng)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		g2, err := ParseEdgeList(&buf)
		if err != nil {
			return false
		}
		return g2.N() == g.N() && g2.M() == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBundledWANDataset: the repository's data/wan12.edges file parses,
// is connected, and has a plausible latency diameter.
func TestBundledWANDataset(t *testing.T) {
	f, err := os.Open("../../data/wan12.edges")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ParseEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("n = %d, want 12", g.N())
	}
	if !g.Connected() {
		t.Fatal("bundled WAN is disconnected")
	}
	m, err := NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	diameter := 0.0
	for i := 0; i < m.N(); i++ {
		for _, d := range m.Row(i) {
			if d > diameter {
				diameter = d
			}
		}
	}
	if diameter < 50 || diameter > 300 {
		t.Fatalf("diameter %v ms outside plausible WAN range", diameter)
	}
}
