package placement_test

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func availInstance(t *testing.T) *placement.Instance {
	t.Helper()
	m := mustMetric(t, graph.Path(6))
	sys := quorum.Majority(4, 3)
	ins, err := placement.NewInstance(m, uniformCaps(6, 3), sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestNodeFailureProbabilityValidation(t *testing.T) {
	ins := availInstance(t)
	p := placement.NewPlacement([]int{0, 1, 2, 3})
	if _, err := ins.NodeFailureProbability(p, -0.1); err == nil {
		t.Fatal("negative probability accepted")
	}
	if _, err := ins.NodeFailureProbability(p, 1.5); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if _, err := ins.NodeFailureProbability(placement.NewPlacement([]int{0}), 0.5); err == nil {
		t.Fatal("short placement accepted")
	}
}

func TestNodeFailureProbabilityEdgeCases(t *testing.T) {
	ins := availInstance(t)
	p := placement.NewPlacement([]int{0, 1, 2, 3})
	f0, err := ins.NodeFailureProbability(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f0 != 0 {
		t.Fatalf("F_0 = %v, want 0", f0)
	}
	f1, err := ins.NodeFailureProbability(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != 1 {
		t.Fatalf("F_1 = %v, want 1", f1)
	}
}

// TestBijectiveMatchesElementLevel: when the placement is injective, node
// failures are exactly element failures.
func TestBijectiveMatchesElementLevel(t *testing.T) {
	ins := availInstance(t)
	p := placement.NewPlacement([]int{0, 1, 2, 3})
	for _, prob := range []float64{0.1, 0.35, 0.6} {
		want, err := quorum.FailureProbability(ins.Sys, prob)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ins.NodeFailureProbability(p, prob)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("p=%v: placed %v, element-level %v", prob, got, want)
		}
	}
}

// TestColocationExactValues pins the closed forms for the three placement
// shapes of Majority(4,3). Colocation is not monotonically bad: with all
// four elements on one node the system fails exactly when that node does
// (F = p), which for p = 0.3 *beats* the spread placement (F ≈ 0.348, the
// 2-of-4 failure tail) — availability depends on how failures correlate
// with the quorum structure, which is exactly what this analysis exposes.
func TestColocationExactValues(t *testing.T) {
	ins := availInstance(t)
	prob := 0.3
	spread, _ := ins.NodeFailureProbability(placement.NewPlacement([]int{0, 1, 2, 3}), prob)
	paired, _ := ins.NodeFailureProbability(placement.NewPlacement([]int{0, 0, 1, 1}), prob)
	co, _ := ins.NodeFailureProbability(placement.NewPlacement([]int{0, 0, 0, 0}), prob)
	// Spread: F = P(≥2 of 4 elements fail) = 1 - (1-p)^4 - 4p(1-p)^3.
	q := 1 - prob
	wantSpread := 1 - q*q*q*q - 4*prob*q*q*q
	if math.Abs(spread-wantSpread) > 1e-12 {
		t.Fatalf("spread failure probability %v, want %v", spread, wantSpread)
	}
	// Paired (2 nodes × 2 elements): any node crash kills 2 elements,
	// leaving 2 < 3 alive → F = 1-(1-p)².
	if want := 1 - q*q; math.Abs(paired-want) > 1e-12 {
		t.Fatalf("paired failure probability %v, want %v", paired, want)
	}
	// Fully colocated: F = p.
	if math.Abs(co-prob) > 1e-12 {
		t.Fatalf("colocated failure probability %v, want %v", co, prob)
	}
	// Pairing is the worst of the three at p = 0.3.
	if !(paired > spread && paired > co) {
		t.Fatalf("expected paired (%v) to be worst; spread %v, colocated %v", paired, spread, co)
	}
}

func TestPlacementResilienceDelayTradeoff(t *testing.T) {
	// The delay-optimal placement may be brittle; verify the analysis
	// exposes that: putting Majority(4,3)'s elements on a single node has
	// resilience 0 while the spread placement has resilience 1.
	ins := availInstance(t)
	r, err := ins.PlacementResilience(placement.NewPlacement([]int{0, 1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("spread resilience = %d, want 1", r)
	}
}

// TestPlacedAvailabilityMatchesBruteForce: on random many-to-one
// placements, NodeFailureProbability and PlacementResilience equal an
// enumeration of every set of crashed nodes, where a set kills the placed
// system when every quorum has an element on a crashed node.
func TestPlacedAvailabilityMatchesBruteForce(t *testing.T) {
	const nodes, prob = 8, 0.2
	m := mustMetric(t, graph.Path(nodes))
	rng := rand.New(rand.NewSource(3))
	for _, sys := range []*quorum.System{
		quorum.Majority(5, 3), quorum.Majority(6, 4), quorum.Grid(3), quorum.FPP(2), quorum.Wheel(5),
		quorum.Star(6), quorum.CrumblingWalls([]int{2, 3, 2}), quorum.RecursiveMajority(2), quorum.Tree(2),
	} {
		ins, err := placement.NewInstance(m, uniformCaps(nodes, 100), sys, quorum.Uniform(sys.NumQuorums()))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			f := make([]int, sys.Universe())
			hosts := 1 + rng.Intn(nodes)
			for u := range f {
				f[u] = rng.Intn(hosts)
			}
			minKill, fail := nodes, 0.0
			for dead := 0; dead < 1<<nodes; dead++ {
				kills := true
				for qi := 0; qi < sys.NumQuorums() && kills; qi++ {
					hit := false
					for _, u := range sys.Quorum(qi) {
						hit = hit || dead&(1<<f[u]) != 0
					}
					kills = hit
				}
				if kills {
					k := bits.OnesCount(uint(dead))
					minKill = min(minKill, k)
					fail += math.Pow(prob, float64(k)) * math.Pow(1-prob, float64(nodes-k))
				}
			}
			pl := placement.NewPlacement(f)
			if got, err := ins.NodeFailureProbability(pl, prob); err != nil || math.Abs(got-fail) > 1e-12 {
				t.Fatalf("%s on %v: NodeFailureProbability = %v, %v; brute force %v", sys.Name(), f, got, err, fail)
			}
			if got, err := ins.PlacementResilience(pl); err != nil || got != minKill-1 {
				t.Fatalf("%s on %v: PlacementResilience = %d, %v; brute force %d", sys.Name(), f, got, err, minKill-1)
			}
		}
	}
}
