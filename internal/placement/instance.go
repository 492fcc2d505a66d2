// Package placement implements the paper's core contribution: algorithms
// that place a quorum system's logical elements onto the nodes of a network
// so that client access delay is approximately minimized while node loads
// stay within a bounded factor of their capacities.
//
// The package covers:
//
//   - the Quorum Placement Problem (QPP, Problem 1.1) under the average
//     max-delay objective, via the reduction to a single source (Lemma 3.1,
//     Theorem 3.3) and LP rounding (Theorem 1.2);
//   - the Single-Source QPP (SSQPP, Problem 3.2) LP (9)–(14), α-filtering
//     and Shmoys–Tardos rounding (Theorems 3.7 and 3.12);
//   - optimal single-source layouts for the Grid (§4.1, Appendix B) and
//     Majority (§4.2, Eq. 19) systems, giving Theorem 1.3;
//   - the total-delay objective solved directly through the Generalized
//     Assignment Problem (Theorem 5.1 / Theorem 1.4);
//   - baseline placements (random and greedy) used by the evaluation.
package placement

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"quorumplace/internal/graph"
	"quorumplace/internal/quorum"
	"quorumplace/internal/treedp"
)

// capTol absorbs floating-point noise in capacity comparisons: a node may
// carry up to cap(v)·(1+capTol) before being considered over capacity.
const capTol = 1e-9

// Instance is a Quorum Placement Problem instance: a network metric with
// per-node capacities, a quorum system over a logical universe, and an
// access strategy. Client access rates are uniform unless Rates is set
// (the §6 extension). Construct with NewInstance.
type Instance struct {
	M     *graph.Metric
	Cap   []float64
	Sys   *quorum.System
	Strat quorum.Strategy

	// Rates holds optional per-client access rates (relative weights, need
	// not sum to 1). nil means uniform. Averages over clients are weighted
	// by Rates, implementing the "different access rates" extension of §6.
	Rates []float64

	loads []float64 // cached element loads under Strat

	// Lazily built SSQPP LP skeletons, one per distance-class count (see
	// ssqppmodel.go). Builds depend only on construction-time state plus the
	// class count, so the cache is shared by every source and every
	// concurrent solve; a solver looks each class count up once.
	modelMu sync.Mutex
	models  map[int]*ssqppModel
}

// NewInstance validates the inputs and caches the element loads.
func NewInstance(m *graph.Metric, cap []float64, sys *quorum.System, strat quorum.Strategy) (*Instance, error) {
	if m == nil || sys == nil {
		return nil, errors.New("placement: nil metric or system")
	}
	if len(cap) != m.N() {
		return nil, fmt.Errorf("placement: %d capacities for %d nodes", len(cap), m.N())
	}
	for v, c := range cap {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("placement: capacity of node %d is %v", v, c)
		}
	}
	loads, err := sys.Loads(strat)
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	return &Instance{M: m, Cap: cap, Sys: sys, Strat: strat, loads: loads, models: make(map[int]*ssqppModel)}, nil
}

// SetRates installs per-client access rates (the §6 extension). Rates must
// be non-negative with a positive sum; pass nil to restore uniform rates.
func (ins *Instance) SetRates(rates []float64) error {
	if rates == nil {
		ins.Rates = nil
		return nil
	}
	if len(rates) != ins.M.N() {
		return fmt.Errorf("placement: %d rates for %d clients", len(rates), ins.M.N())
	}
	sum := 0.0
	for v, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("placement: rate of client %d is %v", v, r)
		}
		sum += r
	}
	if sum <= 0 {
		return errors.New("placement: rates sum to zero")
	}
	ins.Rates = append([]float64(nil), rates...)
	return nil
}

// Load returns the load of logical element u under the instance strategy:
// load(u) = Σ_{Q ∋ u} p(Q).
func (ins *Instance) Load(u int) float64 { return ins.loads[u] }

// Loads returns a copy of all element loads.
func (ins *Instance) Loads() []float64 { return append([]float64(nil), ins.loads...) }

// TotalLoad returns Σ_u load(u), which any placement must fit into the
// total capacity.
func (ins *Instance) TotalLoad() float64 {
	sum := 0.0
	for _, l := range ins.loads {
		sum += l
	}
	return sum
}

// AutoCapacity is the uniform node capacity the commands default to when
// none is given: the total load of sys under st spread evenly over n
// nodes with 30% headroom, and never below the largest element load, or
// that element fits nowhere.
func AutoCapacity(sys *quorum.System, st quorum.Strategy, n int) (float64, error) {
	loads, err := sys.Loads(st)
	if err != nil {
		return 0, fmt.Errorf("placement: %w", err)
	}
	total := 0.0
	for _, l := range loads {
		total += l
	}
	c := total / float64(n) * 1.3
	for _, l := range loads {
		if l > c {
			c = l
		}
	}
	return c, nil
}

// Placement is a map f : U → V from logical elements to network nodes.
type Placement struct {
	f []int
}

// NewPlacement wraps the element→node map f (copied).
func NewPlacement(f []int) Placement {
	return Placement{f: append([]int(nil), f...)}
}

// Node returns f(u).
func (p Placement) Node(u int) int { return p.f[u] }

// Len returns the universe size.
func (p Placement) Len() int { return len(p.f) }

// Map returns a copy of the underlying element→node map.
func (p Placement) Map() []int { return append([]int(nil), p.f...) }

// Validate checks that the placement covers exactly the instance universe
// and maps into the node range.
func (ins *Instance) Validate(p Placement) error {
	if p.Len() != ins.Sys.Universe() {
		return fmt.Errorf("placement: maps %d elements, universe has %d", p.Len(), ins.Sys.Universe())
	}
	for u, v := range p.f {
		if v < 0 || v >= ins.M.N() {
			return fmt.Errorf("placement: element %d mapped to invalid node %d", u, v)
		}
	}
	return nil
}

// NodeLoads returns load_f(v) = Σ_{u : f(u)=v} load(u) for every node.
func (ins *Instance) NodeLoads(p Placement) []float64 {
	loads := make([]float64, ins.M.N())
	for u, v := range p.f {
		loads[v] += ins.loads[u]
	}
	return loads
}

// CapacityViolation returns the largest ratio load_f(v)/cap(v) over nodes
// with positive placed load (0 if the placement is empty). A value ≤ 1
// means the placement respects all capacities. A node with zero capacity
// and positive load yields +Inf.
func (ins *Instance) CapacityViolation(p Placement) float64 {
	worst := 0.0
	for v, l := range ins.NodeLoads(p) {
		if l <= 0 {
			continue
		}
		if ins.Cap[v] <= 0 {
			return math.Inf(1)
		}
		if r := l / ins.Cap[v]; r > worst {
			worst = r
		}
	}
	return worst
}

// Feasible reports whether the placement respects every node capacity
// (within the floating-point tolerance).
func (ins *Instance) Feasible(p Placement) bool {
	for v, l := range ins.NodeLoads(p) {
		if l > ins.Cap[v]*(1+capTol)+capTol {
			return false
		}
	}
	return true
}

// QuorumMaxDelay returns δ_f(v, Q_i) = max_{u ∈ Q_i} d(v, f(u)) (Eq. 1).
func (ins *Instance) QuorumMaxDelay(v, qi int, p Placement) float64 {
	max := 0.0
	row := ins.M.Row(v)
	for _, u := range ins.Sys.Quorum(qi) {
		if d := row[p.f[u]]; d > max {
			max = d
		}
	}
	return max
}

// MaxDelayFrom returns Δ_f(v) = Σ_Q p(Q) δ_f(v, Q) (Eq. 2), the expected
// max-delay for client v under the instance strategy.
func (ins *Instance) MaxDelayFrom(v int, p Placement) float64 {
	return ins.MaxDelayFromWithStrategy(v, ins.Strat, p)
}

// MaxDelayFromWithStrategy is MaxDelayFrom under an explicit per-client
// strategy (the §6 per-client extension).
func (ins *Instance) MaxDelayFromWithStrategy(v int, st quorum.Strategy, p Placement) float64 {
	sum := 0.0
	for qi := 0; qi < ins.Sys.NumQuorums(); qi++ {
		if pq := st.P(qi); pq > 0 {
			sum += pq * ins.QuorumMaxDelay(v, qi, p)
		}
	}
	return sum
}

// TotalDelayFrom returns Γ_f(v) = Σ_Q p(Q) γ_f(v, Q), the expected
// total-delay for client v. It exploits the identity
// Γ_f(v) = Σ_u load(u) · d(v, f(u)).
func (ins *Instance) TotalDelayFrom(v int, p Placement) float64 {
	sum := 0.0
	row := ins.M.Row(v)
	for u, node := range p.f {
		sum += ins.loads[u] * row[node]
	}
	return sum
}

// avgOverClients returns the (rate-weighted) average of g(v) over clients.
func (ins *Instance) avgOverClients(g func(v int) float64) float64 {
	n := ins.M.N()
	if ins.Rates == nil {
		sum := 0.0
		for v := 0; v < n; v++ {
			sum += g(v)
		}
		return sum / float64(n)
	}
	sum, wsum := 0.0, 0.0
	for v := 0; v < n; v++ {
		sum += ins.Rates[v] * g(v)
		wsum += ins.Rates[v]
	}
	return sum / wsum
}

// AvgMaxDelay returns Avg_{v∈V} Δ_f(v), the QPP objective (Problem 1.1),
// weighted by client rates when set.
func (ins *Instance) AvgMaxDelay(p Placement) float64 {
	return ins.avgOverClients(func(v int) float64 { return ins.MaxDelayFrom(v, p) })
}

// delaySlack scales the slack of delayBound: 1e-9 of the clients' average
// farthest-element distance. The rank walk and AvgMaxDelay add the same
// non-negative terms in different orders; their rounding differs by a few
// ulps per quorum, per zeta-transform level and per client of that
// distance, under 1e-10 of it for any instance whose n×n metric fits in
// memory.
const delaySlack = 1e-9

// delayBound returns AvgMaxDelay(p) computed by a rank walk over mass, the
// subset-mass table of the instance's system and strategy
// (treedp.SubsetMass), and a slack with walk − slack ≤ AvgMaxDelay(p) ≤
// walk + slack despite rounding. For client v, let S_k hold the k elements
// nearest to v under f: a quorum's farthest element is the k-th exactly
// when the quorum lies in S_k but not in S_(k−1), so
// Δ_f(v) = Σ_k d_(k)·(mass(S_k) − mass(S_(k−1))), in O(U log U) per client
// instead of a pass over every quorum.
func (ins *Instance) delayBound(p Placement, mass []float64) (walk, slack float64) {
	nU := len(p.f)
	var d [treedp.MaxUniverse]float64
	var el [treedp.MaxUniverse]int
	sum, far, wsum := 0.0, 0.0, 0.0
	for v := 0; v < ins.M.N(); v++ {
		row := ins.M.Row(v)
		for u, node := range p.f { // insertion sort by distance from v
			du, k := row[node], u
			for ; k > 0 && d[k-1] > du; k-- {
				d[k], el[k] = d[k-1], el[k-1]
			}
			d[k], el[k] = du, u
		}
		val, S, prev := 0.0, 0, mass[0]
		for k, u := range el[:nU] {
			S |= 1 << u
			val += d[k] * (mass[S] - prev)
			prev = mass[S]
		}
		w := 1.0
		if ins.Rates != nil {
			w = ins.Rates[v]
		}
		sum += w * val
		far += w * d[nU-1]
		wsum += w
	}
	return sum / wsum, delaySlack * far / wsum
}

// AvgTotalDelay returns Avg_{v∈V} Γ_f(v), the §5 objective.
func (ins *Instance) AvgTotalDelay(p Placement) float64 {
	return ins.avgOverClients(func(v int) float64 { return ins.TotalDelayFrom(v, p) })
}

// AvgDistToNode returns the rate-weighted Avg_{v∈V} d(v, v0) term of the
// relay decomposition (Eq. 8).
func (ins *Instance) AvgDistToNode(v0 int) float64 {
	return ins.avgOverClients(func(v int) float64 { return ins.M.D(v, v0) })
}

// RelayDelay returns the average delay of the "relay-via-v0" strategy of
// Lemma 3.1: Avg_v [ d(v, v0) + Δ_f(v0) ] = Avg_v d(v, v0) + Δ_f(v0).
func (ins *Instance) RelayDelay(v0 int, p Placement) float64 {
	return ins.AvgDistToNode(v0) + ins.MaxDelayFrom(v0, p)
}

// BestRelayNode returns the node v0 minimizing Δ_f(v0) — the special node
// of Lemma 3.1 (computable in polynomial time by trying all nodes) — along
// with Δ_f(v0).
func (ins *Instance) BestRelayNode(p Placement) (int, float64) {
	best, bestVal := 0, math.Inf(1)
	for v := 0; v < ins.M.N(); v++ {
		if d := ins.MaxDelayFrom(v, p); d < bestVal {
			best, bestVal = v, d
		}
	}
	return best, bestVal
}
