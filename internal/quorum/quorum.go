// Package quorum provides quorum systems over a logical universe of
// elements, access strategies over them, and the induced element loads.
//
// A quorum system Q = {Q1, ..., Qm} over a universe U is a family of subsets
// of U such that every pair of quorums intersects (§1 of the paper). An
// access strategy p is a probability distribution over Q; the load it
// induces on an element u is load(u) = Σ_{Q ∋ u} p(Q) (§1.1).
//
// The package implements the two systems the paper analyzes specifically —
// the Grid [Cheung et al.; Kumar et al.] and the Majority [Gifford; Thomas]
// — plus the broader constructions its introduction draws on (Singleton,
// Tree [Agrawal–El Abbadi], Maekawa, Crumbling Walls [Peleg–Wool], Wheel,
// and Weighted Majority), and the Naor–Wool optimal (load-minimizing)
// strategy computed by linear programming.
package quorum

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"quorumplace/internal/lp"
)

// System is an immutable quorum system: a universe {0, ..., n-1} and a list
// of pairwise-intersecting quorums. Construct with NewSystem or one of the
// named constructions.
type System struct {
	name     string
	universe int
	quorums  [][]int
}

// NewSystem validates and builds a quorum system. Each quorum must be a
// non-empty subset of {0..universe-1} without duplicates, and every pair of
// quorums must intersect. The quorum element slices are copied and sorted.
func NewSystem(name string, universe int, quorums [][]int) (*System, error) {
	if universe <= 0 {
		return nil, fmt.Errorf("quorum: universe size %d must be positive", universe)
	}
	if len(quorums) == 0 {
		return nil, fmt.Errorf("quorum: system %q has no quorums", name)
	}
	cp := make([][]int, len(quorums))
	for i, q := range quorums {
		if len(q) == 0 {
			return nil, fmt.Errorf("quorum: quorum %d of %q is empty", i, name)
		}
		c := append([]int(nil), q...)
		sort.Ints(c)
		for j, u := range c {
			if u < 0 || u >= universe {
				return nil, fmt.Errorf("quorum: quorum %d of %q contains element %d outside universe [0,%d)", i, name, u, universe)
			}
			if j > 0 && c[j-1] == u {
				return nil, fmt.Errorf("quorum: quorum %d of %q contains duplicate element %d", i, name, u)
			}
		}
		cp[i] = c
	}
	s := &System{name: name, universe: universe, quorums: cp}
	if err := s.VerifyIntersection(); err != nil {
		return nil, err
	}
	return s, nil
}

// must is how the exported constructions report an argument that breaks
// their precondition: a panic whose value is the error's message. Parse
// calls the same builders and returns the error instead.
func must(s *System, err error) *System {
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Name returns the human-readable construction name.
func (s *System) Name() string { return s.name }

// Universe returns the number of logical elements.
func (s *System) Universe() int { return s.universe }

// NumQuorums returns the number of quorums.
func (s *System) NumQuorums() int { return len(s.quorums) }

// Quorum returns the i-th quorum as a sorted element slice. The returned
// slice is owned by the system and must not be modified.
func (s *System) Quorum(i int) []int { return s.quorums[i] }

// Quorums returns all quorums. The outer and inner slices are owned by the
// system and must not be modified.
func (s *System) Quorums() [][]int { return s.quorums }

// Image returns the system named name whose quorums are the images of the
// quorums of s under f, which maps element u to f[u] in {0, ..., universe-1}:
// the system a placement induces on its nodes, where the elements one node
// hosts fail together. Images of intersecting quorums intersect, so no
// pairwise check runs.
func (s *System) Image(name string, universe int, f []int) *System {
	quorums := make([][]int, len(s.quorums))
	for i, q := range s.quorums {
		img := make([]int, len(q))
		for j, u := range q {
			img[j] = f[u]
		}
		slices.Sort(img)
		quorums[i] = slices.Compact(img)
	}
	return &System{name: name, universe: universe, quorums: quorums}
}

// VerifyIntersection checks the defining property: every pair of quorums
// shares at least one element. Quorums are sorted, so each pair is checked
// with a linear merge.
func (s *System) VerifyIntersection() error {
	for i := 0; i < len(s.quorums); i++ {
		for j := i + 1; j < len(s.quorums); j++ {
			if !sortedIntersect(s.quorums[i], s.quorums[j]) {
				return fmt.Errorf("quorum: quorums %d and %d of %q do not intersect", i, j, s.name)
			}
		}
	}
	return nil
}

func sortedIntersect(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Contains reports whether quorum i contains element u.
func (s *System) Contains(i, u int) bool {
	q := s.quorums[i]
	k := sort.SearchInts(q, u)
	return k < len(q) && q[k] == u
}

// Strategy is an access strategy: a probability distribution over the
// quorums of a system (§1). The zero value is invalid; construct with
// NewStrategy or Uniform.
type Strategy struct {
	p []float64
}

// strategyTol is the tolerance on Σp = 1 accepted by NewStrategy.
const strategyTol = 1e-9

// NewStrategy validates p as a probability distribution and wraps it.
// The slice is copied.
func NewStrategy(p []float64) (Strategy, error) {
	sum := 0.0
	for i, pi := range p {
		if pi < 0 || math.IsNaN(pi) || math.IsInf(pi, 0) {
			return Strategy{}, fmt.Errorf("quorum: probability %d is %v", i, pi)
		}
		sum += pi
	}
	if math.Abs(sum-1) > strategyTol*float64(len(p)+1) {
		return Strategy{}, fmt.Errorf("quorum: probabilities sum to %v, want 1", sum)
	}
	return Strategy{p: append([]float64(nil), p...)}, nil
}

// Uniform returns the uniform strategy over m quorums. The paper uses this
// for the Grid and Majority systems (§4), where it achieves optimal load.
func Uniform(m int) Strategy {
	if m <= 0 {
		panic(fmt.Sprintf("quorum: uniform strategy over %d quorums", m))
	}
	p := make([]float64, m)
	for i := range p {
		p[i] = 1 / float64(m)
	}
	return Strategy{p: p}
}

// P returns the probability of quorum i.
func (st Strategy) P(i int) float64 { return st.p[i] }

// Len returns the number of quorums covered by the strategy.
func (st Strategy) Len() int { return len(st.p) }

// Probs returns a copy of the underlying distribution.
func (st Strategy) Probs() []float64 { return append([]float64(nil), st.p...) }

// Loads returns the per-element loads load(u) = Σ_{Q ∋ u} p(Q) induced by
// the strategy on the system.
func (s *System) Loads(st Strategy) ([]float64, error) {
	if st.Len() != len(s.quorums) {
		return nil, fmt.Errorf("quorum: strategy covers %d quorums, system has %d", st.Len(), len(s.quorums))
	}
	loads := make([]float64, s.universe)
	for i, q := range s.quorums {
		for _, u := range q {
			loads[u] += st.p[i]
		}
	}
	return loads, nil
}

// MaxLoad returns the system load under st: the load of the most loaded
// element, the quantity minimized by the Naor–Wool optimal strategy.
func (s *System) MaxLoad(st Strategy) (float64, error) {
	loads, err := s.Loads(st)
	if err != nil {
		return 0, err
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max, nil
}

// OptimalStrategy computes the load-minimizing access strategy of the
// system (the LP from Naor & Wool, "The load, capacity, and availability of
// quorum systems"): minimize z subject to Σ_{Q ∋ u} p(Q) ≤ z for all u and
// Σ_Q p(Q) = 1, p ≥ 0. It returns the strategy and the optimal load.
func OptimalStrategy(s *System) (Strategy, float64, error) {
	prob := lp.NewProblem()
	m := len(s.quorums)
	pv := make([]int, m)
	for i := range pv {
		pv[i] = prob.AddVar(0, fmt.Sprintf("p%d", i))
	}
	z := prob.AddVar(1, "z")
	// Σ p = 1
	terms := make([]lp.Term, m)
	for i := range terms {
		terms[i] = lp.Term{Var: pv[i], Coef: 1}
	}
	prob.AddConstraint(terms, lp.EQ, 1)
	// load(u) - z ≤ 0
	for u := 0; u < s.universe; u++ {
		var t []lp.Term
		for i, q := range s.quorums {
			if containsSorted(q, u) {
				t = append(t, lp.Term{Var: pv[i], Coef: 1})
			}
		}
		if len(t) == 0 {
			continue // element in no quorum carries no load
		}
		t = append(t, lp.Term{Var: z, Coef: -1})
		prob.AddConstraint(t, lp.LE, 0)
	}
	sol, err := prob.Solve()
	if err != nil {
		return Strategy{}, 0, fmt.Errorf("quorum: optimal strategy LP: %w", err)
	}
	if err := prob.VerifySolution(sol, 1e-6); err != nil {
		return Strategy{}, 0, fmt.Errorf("quorum: optimal strategy LP returned an infeasible point: %w", err)
	}
	p := make([]float64, m)
	for i := range p {
		p[i] = sol.X[pv[i]]
	}
	st, err := NewStrategy(p)
	if err != nil {
		return Strategy{}, 0, fmt.Errorf("quorum: optimal strategy LP returned invalid distribution: %w", err)
	}
	return st, sol.X[z], nil
}

func containsSorted(q []int, u int) bool {
	k := sort.SearchInts(q, u)
	return k < len(q) && q[k] == u
}
