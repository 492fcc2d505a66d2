package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestScale(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	g := ErdosRenyiConnected(10, 0.4, 1, 5, rng)
	s := Scale(g, 2.5)
	if s.N() != g.N() || s.M() != g.M() {
		t.Fatalf("scale changed shape")
	}
	m1, err := NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMetricFromGraph(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if math.Abs(m2.D(i, j)-2.5*m1.D(i, j)) > 1e-9 {
				t.Fatalf("d(%d,%d): %v != 2.5·%v", i, j, m2.D(i, j), m1.D(i, j))
			}
		}
	}
}

func TestScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(g, 0) did not panic")
		}
	}()
	Scale(Path(3), 0)
}
