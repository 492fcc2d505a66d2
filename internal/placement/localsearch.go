package placement

import (
	"fmt"

	"quorumplace/internal/obs"
)

// Local-search post-processing. The paper's guarantees come from LP
// rounding; on concrete instances a placement can often be improved further
// by greedy relocations and swaps without touching the load guarantee. The
// improver never raises any node's load above maxLoadFactor·cap, so running
// it on a Theorem 3.7 placement with maxLoadFactor = α+1 preserves the
// theorem's load bound while only decreasing the delay. This is an
// extension of the paper (its §6 mentions no post-processing); the E12
// ablation quantifies what it buys.

// Objective selects the delay objective a local search optimizes.
type Objective int

// Local-search objectives.
const (
	ObjectiveAvgMaxDelay Objective = iota // Problem 1.1
	ObjectiveAvgTotalDelay
	ObjectiveSourceMaxDelay // Δ_f(v0) for a fixed source (Problem 3.2)
)

// LocalSearchConfig configures ImproveLocalSearch.
type LocalSearchConfig struct {
	Objective Objective
	// V0 is the source node; used only with ObjectiveSourceMaxDelay.
	V0 int
	// MaxLoadFactor bounds node loads during the search: a move is legal
	// only if the destination stays within MaxLoadFactor·cap. Use 1 for
	// capacity-respecting searches, α+1 to preserve a Theorem 3.7 bound.
	MaxLoadFactor float64
}

// ImproveLocalSearch hill-climbs from p using single-element relocations
// and pairwise swaps, returning an improved placement and its objective
// value. The returned placement is never worse than the input, and every
// intermediate placement respects MaxLoadFactor·cap.
func ImproveLocalSearch(ins *Instance, p Placement, cfg LocalSearchConfig) (Placement, float64, error) {
	if err := ins.Validate(p); err != nil {
		return Placement{}, 0, err
	}
	if cfg.MaxLoadFactor <= 0 {
		return Placement{}, 0, fmt.Errorf("placement: MaxLoadFactor = %v must be positive", cfg.MaxLoadFactor)
	}
	if cfg.Objective == ObjectiveSourceMaxDelay && (cfg.V0 < 0 || cfg.V0 >= ins.M.N()) {
		return Placement{}, 0, fmt.Errorf("placement: V0 = %d out of range", cfg.V0)
	}
	eval := func(f []int) float64 {
		pl := Placement{f: f}
		switch cfg.Objective {
		case ObjectiveAvgTotalDelay:
			return ins.AvgTotalDelay(pl)
		case ObjectiveSourceMaxDelay:
			return ins.MaxDelayFrom(cfg.V0, pl)
		default:
			return ins.AvgMaxDelay(pl)
		}
	}

	nU := ins.Sys.Universe()
	n := ins.M.N()
	f := p.Map()
	loads := make([]float64, n)
	for u, v := range f {
		loads[v] += ins.loads[u]
	}
	budget := make([]float64, n)
	for v := range budget {
		budget[v] = cfg.MaxLoadFactor*ins.Cap[v] + capTol
	}
	// The incoming placement may already exceed the budget on some node
	// (e.g. a random placement checked against factor 1); allow the search
	// to start there but never make any over-budget node worse.
	cur := eval(f)
	maxIter := 10 * nU * n

	sp := obs.Start("placement.localsearch")
	defer sp.End()
	var relocations, swaps, evals int64
	defer func() {
		obs.Count("placement.localsearch_moves", relocations+swaps)
		obs.Count("placement.localsearch_relocations", relocations)
		obs.Count("placement.localsearch_swaps", swaps)
		obs.Count("placement.localsearch_evals", evals)
	}()
	improved := true
	for iter := 0; improved && iter < maxIter; iter++ {
		improved = false
		// Relocations.
		for u := 0; u < nU && !improved; u++ {
			from := f[u]
			for v := 0; v < n; v++ {
				if v == from {
					continue
				}
				if loads[v]+ins.loads[u] > budget[v] {
					continue
				}
				f[u] = v
				evals++
				if cand := eval(f); cand < cur-1e-12 {
					loads[from] -= ins.loads[u]
					loads[v] += ins.loads[u]
					cur = cand
					improved = true
					relocations++
					break
				}
				f[u] = from
			}
		}
		if improved {
			continue
		}
		// Swaps.
		for a := 0; a < nU && !improved; a++ {
			for b := a + 1; b < nU; b++ {
				va, vb := f[a], f[b]
				if va == vb {
					continue
				}
				la, lb := ins.loads[a], ins.loads[b]
				if loads[va]-la+lb > budget[va] || loads[vb]-lb+la > budget[vb] {
					continue
				}
				f[a], f[b] = vb, va
				evals++
				if cand := eval(f); cand < cur-1e-12 {
					loads[va] += lb - la
					loads[vb] += la - lb
					cur = cand
					improved = true
					swaps++
					break
				}
				f[a], f[b] = va, vb
			}
		}
	}
	return NewPlacement(f), cur, nil
}

// SolveSSQPPArgmax is the ablation variant of SolveSSQPP that skips the
// Shmoys–Tardos rounding and instead assigns every element to its
// largest-mass filtered rank. It keeps the Lemma 3.9 delay property
// (support-respecting assignment ⇒ Δ ≤ α/(α-1)·Z*) but provides NO load
// guarantee: many elements can pile onto the same node. The E12 ablation
// uses it to show the rounding step is what controls load.
func SolveSSQPPArgmax(ins *Instance, v0 int, alpha float64) (*SSQPPResult, error) {
	if alpha <= 1 {
		return nil, fmt.Errorf("placement: filtering parameter alpha = %v must exceed 1", alpha)
	}
	if v0 < 0 || v0 >= ins.M.N() {
		return nil, fmt.Errorf("placement: source %d out of range [0,%d)", v0, ins.M.N())
	}
	frac, err := solveSSQPPLP(ins, v0)
	if err != nil {
		return nil, err
	}
	xt := filter(frac.xu, alpha)
	nU := ins.Sys.Universe()
	f := make([]int, nU)
	for u := 0; u < nU; u++ {
		bestT, bestV := 0, -1.0
		for t := 0; t < len(xt); t++ {
			if xt[t][u] > bestV {
				bestT, bestV = t, xt[t][u]
			}
		}
		if bestV <= filterTol {
			return nil, fmt.Errorf("placement: element %d has empty filtered support", u)
		}
		f[u] = frac.order[bestT]
	}
	pl := NewPlacement(f)
	return &SSQPPResult{
		Placement: pl,
		V0:        v0,
		Alpha:     alpha,
		Delay:     ins.MaxDelayFrom(v0, pl),
		LPBound:   frac.obj,
	}, nil
}
