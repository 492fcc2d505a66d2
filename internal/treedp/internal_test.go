package treedp

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/obs"
	"quorumplace/internal/quorum"
)

// Every node holds one element of Majority(9,5) (load 5/9) but no two, so
// the first rank relaxes 9 pairs and the second 9·2^8, past the budget of 10.
func TestSSQPPBudgetExhaustion(t *testing.T) {
	n := 32
	dist := make([]float64, n)
	caps := make([]float64, n)
	for i := range dist {
		dist[i] = float64(i)
		caps[i] = 0.6
	}
	sys := quorum.Majority(9, 5)
	strat := quorum.Uniform(sys.NumQuorums())
	loads, err := sys.Loads(strat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := solveSSQPP(dist, caps, loads, sys, strat, 10); !errors.Is(err, ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
}

// stateMajorSSQPP is the DP's former enumeration, kept as an oracle: each
// rank walks the finite states S in ascending order and tests the load of
// every subset of S's complement. It returns ok = false when no placement
// fits.
func stateMajorSSQPP(dist, caps, loads []float64, sys *quorum.System, strat quorum.Strategy) ([]int, float64, bool) {
	n, nU := len(dist), sys.Universe()
	size := 1 << nU
	full := size - 1
	probOf := SubsetMass(sys, strat)
	fullP := probOf[full]
	loadOf := make([]float64, size)
	for m := 1; m < size; m++ {
		low := m & -m
		loadOf[m] = loadOf[m^low] + loads[bits.TrailingZeros32(uint32(low))]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		oi, oj := order[i], order[j]
		if dist[oi] != dist[oj] {
			return dist[oi] < dist[oj]
		}
		if caps[oi] != caps[oj] {
			return caps[oi] < caps[oj]
		}
		return oi < oj
	})
	dp, next := make([]float64, size), make([]float64, size)
	trace, nextTrace := make([]*chain, size), make([]*chain, size)
	for i := range dp {
		dp[i] = math.Inf(1)
	}
	dp[0] = 0
	for _, v := range order {
		dt := dist[v]
		if best := dp[full]; !math.IsInf(best, 1) {
			improvable := false
			for S := 0; S < full && !improvable; S++ {
				improvable = dp[S]+(fullP-probOf[S])*dt < best
			}
			if !improvable {
				break
			}
		}
		limit := caps[v]*(1+capTol) + capTol
		copy(next, dp)
		copy(nextTrace, trace)
		for S := 0; S < size; S++ {
			if math.IsInf(dp[S], 1) {
				continue
			}
			comp := full &^ S
			for A := comp; A != 0; A = (A - 1) & comp {
				if loadOf[A] > limit {
					continue
				}
				if c := dp[S] + (probOf[S|A]-probOf[S])*dt; c < next[S|A] {
					next[S|A] = c
					nextTrace[S|A] = &chain{prev: trace[S], node: int32(v), subset: uint32(A)}
				}
			}
		}
		dp, next = next, dp
		trace, nextTrace = nextTrace, trace
	}
	if math.IsInf(dp[full], 1) {
		return nil, 0, false
	}
	f := make([]int, nU)
	for c := trace[full]; c != nil; c = c.prev {
		for a := c.subset; a != 0; a &= a - 1 {
			f[bits.TrailingZeros32(a)] = int(c.node)
		}
	}
	return f, dp[full], true
}

// randomDPInstance draws a random intersecting system (every quorum holds a
// majority of the universe, some elements may lie in no quorum) with a
// strategy that gives some quorums zero probability, distances on a few
// integer levels so ranks tie, and capacities that admit no element, about
// one, several, or everything.
func randomDPInstance(t *testing.T, rng *rand.Rand) ([]float64, []float64, []float64, *quorum.System, quorum.Strategy) {
	t.Helper()
	nU := 1 + rng.Intn(9)
	qs := make([][]int, 1+rng.Intn(6))
	for i := range qs {
		qs[i] = rng.Perm(nU)[:nU/2+1+rng.Intn(nU-nU/2)]
	}
	sys, err := quorum.NewSystem("random", nU, qs)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(qs))
	sum := 0.0
	for i := range w {
		if i == 0 || rng.Intn(3) > 0 {
			w[i] = rng.Float64() + 0.01
		}
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	strat, err := quorum.NewStrategy(w)
	if err != nil {
		t.Fatal(err)
	}
	loads, err := sys.Loads(strat)
	if err != nil {
		t.Fatal(err)
	}
	maxLoad, total := 0.0, 0.0
	for _, l := range loads {
		maxLoad, total = max(maxLoad, l), total+l
	}
	n := 1 + rng.Intn(12)
	dist, caps := make([]float64, n), make([]float64, n)
	for v := range dist {
		dist[v] = float64(rng.Intn(4))
		caps[v] = []float64{0, maxLoad / 2, maxLoad, 1.5 * maxLoad, total}[rng.Intn(5)]
	}
	return dist, caps, loads, sys, strat
}

// The subset-major relaxation must return the state-major scan's placement
// and objective bit for bit, since each target meets its candidates in the
// same order, and count at most 3^U pairs per rank.
func TestSubsetMajorMatchesStateMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	feasible := 0
	for trial := 0; trial < 400; trial++ {
		dist, caps, loads, sys, strat := randomDPInstance(t, rng)
		wantF, wantObj, ok := stateMajorSSQPP(dist, caps, loads, sys, strat)
		c := obs.Enable(nil)
		f, obj, err := SolveSSQPP(dist, caps, loads, sys, strat)
		obs.Disable()
		if !ok {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: state-major scan finds no placement, got %v", trial, err)
			}
			continue
		}
		feasible++
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.Equal(f, wantF) || obj != wantObj {
			t.Fatalf("trial %d: got f=%v Δ=%v, state-major scan f=%v Δ=%v", trial, f, obj, wantF, wantObj)
		}
		snap := c.Snapshot()
		ops, ranks := snap.Counter("treedp.dp_ops"), snap.Gauges["treedp.dp_ranks"]
		if limit := ranks * math.Pow(3, float64(sys.Universe())); float64(ops) > limit {
			t.Fatalf("trial %d: %d pairs over %v ranks, past ranks·3^U = %v", trial, ops, ranks, limit)
		}
	}
	if feasible < 100 || feasible > 390 {
		t.Fatalf("%d of 400 instances feasible; the draw no longer mixes feasible and infeasible ones", feasible)
	}
}

// When one node holds the whole universe, the first rank relaxes each
// nonempty subset once from the empty state and the early cut stops the
// scan: 2^U − 1 pairs, as many as the state-major scan counted.
func TestAllFitOps(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	sys := quorum.Majority(9, 5)
	strat := quorum.Uniform(sys.NumQuorums())
	loads, err := sys.Loads(strat)
	if err != nil {
		t.Fatal(err)
	}
	dist, caps := make([]float64, 128), make([]float64, 128)
	for v := range dist {
		dist[v], caps[v] = rng.Float64(), 10
	}
	c := obs.Enable(nil)
	_, _, err = SolveSSQPP(dist, caps, loads, sys, strat)
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if ops := c.Snapshot().Counter("treedp.dp_ops"); ops != 1<<9-1 {
		t.Fatalf("%d pairs, want %d", ops, 1<<9-1)
	}
}

func TestSSQPPInfeasible(t *testing.T) {
	sys := quorum.Majority(3, 2)
	strat := quorum.Uniform(sys.NumQuorums())
	loads, _ := sys.Loads(strat)
	dist := []float64{0, 1, 2}
	caps := []float64{0, 0, 0} // every element has positive load, no node fits it
	if _, _, err := SolveSSQPP(dist, caps, loads, sys, strat); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", err)
	}
}

func TestSSQPPUniverseLimit(t *testing.T) {
	qs := make([][]int, MaxUniverse+1)
	for i := range qs {
		qs[i] = make([]int, MaxUniverse+1)
		for j := range qs[i] {
			qs[i][j] = j
		}
	}
	sys, err := quorum.NewSystem("big", MaxUniverse+1, qs[:1])
	if err != nil {
		t.Fatal(err)
	}
	strat := quorum.Uniform(1)
	loads, _ := sys.Loads(strat)
	if _, _, err := SolveSSQPP([]float64{0}, []float64{100}, loads, sys, strat); err == nil {
		t.Fatal("universe above MaxUniverse must be rejected")
	}
}

// The rate-weighted 1-median from rerooting must match the brute-force
// argmin of Σ w_v d(v, x) on random trees.
func TestWeightedMedianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		g := graph.RandomTree(n, 0.2, 3.0, rng)
		var w []float64
		if trial%2 == 0 {
			w = make([]float64, n)
			for i := range w {
				w[i] = rng.Float64() * 5
			}
			w[rng.Intn(n)] += 1 // keep the total positive
		}
		got := weightedMedian(g, w)

		m, err := graph.NewMetricFromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		best, bestVal := 0, 0.0
		for x := 0; x < n; x++ {
			s := 0.0
			for v := 0; v < n; v++ {
				wt := 1.0
				if w != nil {
					wt = w[v]
				}
				s += wt * m.D(v, x)
			}
			if x == 0 || s < bestVal {
				best, bestVal = x, s
			}
		}
		// Accept either on float ties.
		gotVal := 0.0
		for v := 0; v < n; v++ {
			wt := 1.0
			if w != nil {
				wt = w[v]
			}
			gotVal += wt * m.D(v, got)
		}
		if gotVal > bestVal*(1+1e-9)+1e-9 {
			t.Fatalf("trial %d: median %d scores %v, brute force %d scores %v", trial, got, gotVal, best, bestVal)
		}
	}
}

// distsFrom must agree with Dijkstra on trees.
func TestDistsFromMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomTree(60, 0.5, 2.5, rng)
	dist := make([]float64, g.N())
	var stack []int
	for src := 0; src < g.N(); src += 7 {
		stack = distsFrom(g, src, dist, stack)
		want := g.ShortestPathsFrom(src)
		for v := range want {
			if dist[v] != want[v] {
				t.Fatalf("d(%d,%d) = %v, Dijkstra gives %v", src, v, dist[v], want[v])
			}
		}
	}
}
