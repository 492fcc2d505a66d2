package migrate

import (
	"fmt"
	"math"

	"quorumplace/internal/gap"
	"quorumplace/internal/placement"
)

// ShardPlan is the outcome of one incremental Planner.Solve: new node
// assignments for the planner's element subset only.
type ShardPlan struct {
	Elems   []int // universe elements this planner owns (construction order)
	Nodes   []int // Nodes[i] = new node of Elems[i]
	LPBound float64
	Warm    bool // the LP re-solve reused the previous basis
}

// Planner re-plans a fixed subset of the placement universe repeatedly.
// It holds a gap.Skeleton whose LP basis survives between solves, so a
// steady-state re-plan (costs moved by drift, capacities moved by the
// incumbent placement) runs phase 2 of the simplex only — the incremental
// tick of the quorumd daemon, which partitions the universe across K
// planners and re-solves one per tick.
//
// The forbidden (node, element) pattern is fixed at construction from the
// instance's full capacities: an element whose load exceeds cap(v) never
// gets a variable on v. Per-solve residual capacities may later shrink the
// budgets below some loads; such pairs are then cut by the capacity row
// rather than excluded structurally (which would force every solve cold),
// at the cost of a slightly weaker p_max term in the Theorem 5.1 load
// bound. A Planner is not safe for concurrent use.
type Planner struct {
	ins   *placement.Instance
	elems []int
	g     *gap.Instance // TotalDelayGAP(elems); each solve re-costs it and resets its budgets
	sk    *gap.Skeleton
	rws   *gap.Workspace
}

// NewPlanner builds a planner for the given universe elements; nil means
// the full universe. The element list is copied.
func NewPlanner(ins *placement.Instance, elems []int) (*Planner, error) {
	nU := ins.Sys.Universe()
	if elems == nil {
		elems = make([]int, nU)
		for u := range elems {
			elems[u] = u
		}
	} else {
		elems = append([]int(nil), elems...)
		seen := make(map[int]bool, len(elems))
		for _, u := range elems {
			if u < 0 || u >= nU {
				return nil, fmt.Errorf("migrate: element %d outside universe of %d", u, nU)
			}
			if seen[u] {
				return nil, fmt.Errorf("migrate: duplicate element %d", u)
			}
			seen[u] = true
		}
	}
	if len(elems) == 0 {
		return nil, fmt.Errorf("migrate: planner needs at least one element")
	}
	g := ins.TotalDelayGAP(elems)
	sk, err := gap.NewSkeleton(g)
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	return &Planner{ins: ins, elems: elems, g: g, sk: sk, rws: gap.NewWorkspace()}, nil
}

// ResetWarm discards the retained LP basis so the next solve runs cold.
func (pl *Planner) ResetWarm() { pl.sk.ResetWarm() }

// Solve re-plans the planner's elements against the (full) incumbent
// placement: minimize Σ load·avgDist + λ·movement over the subset, under
// the given per-node capacities (nil = the instance capacities; a daemon
// passes residual capacities with the load of non-subset elements already
// subtracted). λ must be finite and non-negative.
func (pl *Planner) Solve(oldP placement.Placement, lambda float64, caps []float64) (*ShardPlan, error) {
	ins := pl.ins
	if err := ins.Validate(oldP); err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("migrate: lambda = %v must be a finite non-negative value", lambda)
	}
	n := ins.M.N()
	if caps == nil {
		caps = ins.Cap
	} else if len(caps) != n {
		return nil, fmt.Errorf("migrate: %d capacities for %d nodes", len(caps), n)
	}
	// Re-cost in place, so the rounding below sees the same costs and
	// budgets as the LP.
	for v := 0; v < n; v++ {
		avgDist := ins.AvgDistToNode(v)
		for i, u := range pl.elems {
			l := ins.Load(u)
			pl.g.Cost[v][i] = l*avgDist + lambda*l*ins.M.D(oldP.Node(u), v)
		}
	}
	if err := pl.sk.SetCosts(pl.g.Cost); err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	copy(pl.g.T, caps)
	if err := pl.sk.SetCapacities(pl.g.T); err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	y, lpObj, warm, err := pl.sk.SolveLP()
	if err != nil {
		return nil, fmt.Errorf("migrate: GAP: %w", err)
	}
	assign, _, err := gap.RoundWith(pl.rws, pl.g, y)
	if err != nil {
		return nil, fmt.Errorf("migrate: GAP: %w", err)
	}
	return &ShardPlan{
		Elems:   pl.elems,
		Nodes:   assign,
		LPBound: lpObj,
		Warm:    warm,
	}, nil
}

// Plan is Solve over the full universe, composed into a *Plan; a cold Plan
// is the package-level Solve. It returns an error when the planner was
// built for a proper subset.
func (pl *Planner) Plan(oldP placement.Placement, lambda float64) (*Plan, bool, error) {
	if len(pl.elems) != pl.ins.Sys.Universe() {
		return nil, false, fmt.Errorf("migrate: Plan needs a full-universe planner (%d of %d elements)",
			len(pl.elems), pl.ins.Sys.Universe())
	}
	sp, err := pl.Solve(oldP, lambda, nil)
	if err != nil {
		return nil, false, err
	}
	newP := placement.NewPlacement(sp.Nodes)
	moved, err := Cost(pl.ins, oldP, newP)
	if err != nil {
		return nil, sp.Warm, err
	}
	return &Plan{
		Placement: newP,
		AvgDelay:  pl.ins.AvgTotalDelay(newP),
		Moved:     moved,
		Lambda:    lambda,
		LPBound:   sp.LPBound,
	}, sp.Warm, nil
}
