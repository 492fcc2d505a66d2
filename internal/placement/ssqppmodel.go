package placement

import (
	"fmt"
	"sort"

	"quorumplace/internal/gap"
	"quorumplace/internal/lp"
	"quorumplace/internal/obs"
)

// This file builds the SSQPP LP (9)–(14) as a reusable model skeleton in a
// sparse "prefix" (telescoped) form over distance classes.
//
// # Distance-class aggregation
//
// The LP sees a rank t only through its distance d_t and the capacity
// cap(v_t) (which also determines the constraint-(13) forbidden set). Ranks
// with identical (distance, capacity) are therefore interchangeable, and the
// LP may be solved over *classes* of such ranks: class c carries distance
// d_c, per-node capacity cap_c, and aggregate capacity g_c·cap_c for a class
// of g_c nodes. This is exact:
//
//   - a class solution with Σ_u load(u)·x_{cu} ≤ g_c·cap_c splits evenly
//     into g_c per-rank solutions each loading at most cap_c;
//   - under an even split, the dense constraint (14) at a mid-class rank is
//     a convex combination of its values at the two class boundaries, so
//     enforcing (14) at class boundaries only is enough;
//   - the objective and (13) depend only on (d_c, cap_c).
//
// expandClasses undoes the aggregation on extraction. On metrics with many
// equidistant nodes (grids, stars, the broom family) the class count C is
// far below n, shrinking the LP quadratically.
//
// # Prefix reformulation
//
// The paper's constraint (14) is, for every quorum Q, element u ∈ Q and
// prefix boundary c:
//
//	Σ_{b≤c} x_{bQ} ≤ Σ_{b≤c} x_{bu}                                (14)
//
// Written directly, the (Q,u) pair contributes Σ_c 2(c+1) = O(C²) nonzeros.
// The skeleton instead introduces cumulative prefix variables
//
//	X_{cu} = Σ_{b≤c} x_{bu}    and    X_{cQ} = Σ_{b≤c} x_{bQ}
//
// defined by telescoped chains (three nonzeros per row):
//
//	X_{0u} − x_{0u} = 0
//	X_{cu} − X_{c−1,u} − x_{cu} = 0        for 1 ≤ c ≤ C−2
//	X_{C−2,u} + x_{C−1,u} = 1              (this is exactly (10))
//
// and likewise for the quorum variables, with the closing row playing the
// role of (11). Constraint (14) then becomes the two-nonzero row
//
//	X_{cQ} − X_{cu} ≤ 0        for 0 ≤ c ≤ C−2,
//
// so a (Q,u) pair costs O(C) nonzeros in total. The reformulation is
// exactly equivalent: the chains force X_{cu} = Σ_{b≤c} x_{bu} in every
// feasible solution, so projecting a feasible point of either formulation
// onto the x variables yields a feasible point of the other with the same
// objective (the prefix variables carry zero cost). The c = C−1 instance of
// (14) is implied by (10) and (11) and is omitted, as in the dense form.
// TestSSQPPPrefixMatchesLegacyLP cross-checks the whole pipeline against
// the original dense per-rank formulation on randomized instances.
//
// # Skeleton reuse
//
// The variable layout and constraint sparsity above depend only on the
// class count C, the quorum system, and the element loads — not on which
// source induced the classes. What varies per source is
//
//   - the objective costs of x_{cQ} (= p(Q)·d_c),
//   - the capacity right-hand sides of (12) (= g_c·cap_c), and
//   - which x_{cu} are forbidden by (13) (load(u) > cap_c).
//
// The Instance therefore caches one skeleton per distinct class count, and
// every solve re-costs a clone with SetCost/SetRHS/SetFixed: SolveQPP's n
// per-source solves share a handful of builds (often just one), and each
// worker of the parallel solver re-costs its own clones of the shared
// skeletons. Because only costs, capacity right-hand sides and fixed flags
// change, consecutive sources on one clone can warm-start from each
// other's optimal basis (lp.SolveHot).

// ssqppModel is the source-independent SSQPP LP skeleton over C classes.
type ssqppModel struct {
	c, nU, nQ int
	prob      *lp.Problem // skeleton; Clone before re-costing and solving
	xu        [][]int     // xu[c][u]: element u placed in the c-th distance class
	xq        [][]int     // xq[c][q]: quorum q completed within the c closest classes
	capRow    []int       // class c → constraint index of (12), -1 if no load terms
}

// ssqppModelFor returns the lazily built, cached LP skeleton for instances
// whose source induces nClasses distance classes. Builds depend only on
// construction-time state plus the class count, so the cache serves every
// source and every solve. Cache hits are lock-free — one atomic pointer load
// plus a read of an immutable map — so concurrent workers never serialize on
// modelMu once the skeletons exist (SolveQPPParallel pre-builds them before
// fanning out on the LP route); misses take the mutex and publish a
// copy-on-write map.
func (ins *Instance) ssqppModelFor(nClasses int) (*ssqppModel, error) {
	if m := ins.models.Load(); m != nil {
		if mdl, ok := (*m)[nClasses]; ok {
			return mdl, nil
		}
	}
	ins.modelMu.Lock()
	defer ins.modelMu.Unlock()
	old := ins.models.Load()
	if old != nil {
		if mdl, ok := (*old)[nClasses]; ok {
			return mdl, nil
		}
	}
	mdl, err := buildSSQPPModel(ins, nClasses)
	if err != nil {
		return nil, err
	}
	next := make(map[int]*ssqppModel, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[nClasses] = mdl
	ins.models.Store(&next)
	return mdl, nil
}

// prebuildSSQPPModels warms the skeleton cache with every class count the
// instance's sources induce, so a subsequent parallel fan-out only performs
// lock-free cache reads. Build failures are deliberately ignored here: they
// are deterministic per class count, so the per-source solves rediscover
// them and the error semantics stay identical to the sequential path.
func (ins *Instance) prebuildSSQPPModels() {
	sv := newSSQPPSolver(ins)
	built := make(map[int]bool)
	for v0 := 0; v0 < ins.M.N(); v0++ {
		_, _, _, nClasses := sv.sourceClasses(v0)
		if !built[nClasses] {
			built[nClasses] = true
			_, _ = ins.ssqppModelFor(nClasses)
		}
	}
}

func buildSSQPPModel(ins *Instance, nClasses int) (*ssqppModel, error) {
	sp := obs.Start("ssqpp.model_build")
	defer sp.End()
	c := nClasses
	nU := ins.Sys.Universe()
	nQ := ins.Sys.NumQuorums()

	// Constraint (13) feasibility pre-check: an element heavier than every
	// node capacity can never be placed, for any source.
	maxCap := 0.0
	for _, cp := range ins.Cap {
		if cp > maxCap {
			maxCap = cp
		}
	}
	for u := 0; u < nU; u++ {
		if ins.loads[u] > maxCap*(1+capTol) {
			return nil, fmt.Errorf("placement: element %d (load %v) exceeds every node capacity", u, ins.loads[u])
		}
	}

	mdl := &ssqppModel{c: c, nU: nU, nQ: nQ, prob: lp.NewProblem()}
	prob := mdl.prob
	mdl.xu = make([][]int, c)
	for t := 0; t < c; t++ {
		mdl.xu[t] = make([]int, nU)
		for u := 0; u < nU; u++ {
			mdl.xu[t][u] = prob.AddVar(0, fmt.Sprintf("x_c%d_u%d", t, u))
		}
	}
	mdl.xq = make([][]int, c)
	for t := 0; t < c; t++ {
		mdl.xq[t] = make([]int, nQ)
		for q := 0; q < nQ; q++ {
			// Objective (9): Σ_Q p0(Q) Σ_c d_c x_{cQ}; costs installed per
			// source by configure.
			mdl.xq[t][q] = prob.AddVar(0, fmt.Sprintf("x_c%d_q%d", t, q))
		}
	}
	// Prefix variables X_{cu}, X_{cQ} for classes 0..C-2 (class C-1 is
	// pinned to 1 by the closing chain rows and never materializes).
	var pu, pq [][]int
	if c >= 2 {
		pu = make([][]int, c-1)
		pq = make([][]int, c-1)
		for t := 0; t < c-1; t++ {
			pu[t] = make([]int, nU)
			for u := 0; u < nU; u++ {
				pu[t][u] = prob.AddVar(0, fmt.Sprintf("X_c%d_u%d", t, u))
			}
			pq[t] = make([]int, nQ)
			for q := 0; q < nQ; q++ {
				pq[t][q] = prob.AddVar(0, fmt.Sprintf("X_c%d_q%d", t, q))
			}
		}
	}

	// Telescoped chains defining the prefixes; the closing rows are (10)
	// and (11).
	addChain := func(vars func(t int) int, prefix func(t int) int) {
		if c == 1 {
			prob.AddConstraint([]lp.Term{{Var: vars(0), Coef: 1}}, lp.EQ, 1)
			return
		}
		prob.AddConstraint([]lp.Term{
			{Var: prefix(0), Coef: 1}, {Var: vars(0), Coef: -1},
		}, lp.EQ, 0)
		for t := 1; t <= c-2; t++ {
			prob.AddConstraint([]lp.Term{
				{Var: prefix(t), Coef: 1}, {Var: prefix(t - 1), Coef: -1}, {Var: vars(t), Coef: -1},
			}, lp.EQ, 0)
		}
		prob.AddConstraint([]lp.Term{
			{Var: prefix(c - 2), Coef: 1}, {Var: vars(c - 1), Coef: 1},
		}, lp.EQ, 1)
	}
	for u := 0; u < nU; u++ {
		u := u
		addChain(func(t int) int { return mdl.xu[t][u] }, func(t int) int { return pu[t][u] })
	}
	for q := 0; q < nQ; q++ {
		q := q
		addChain(func(t int) int { return mdl.xq[t][q] }, func(t int) int { return pq[t][q] })
	}

	// (12): Σ_u load(u) x_{cu} ≤ g_c·cap_c. Right-hand sides are installed
	// per source by configure.
	mdl.capRow = make([]int, c)
	var terms []lp.Term
	for t := 0; t < c; t++ {
		terms = terms[:0]
		for u := 0; u < nU; u++ {
			if ins.loads[u] > 0 {
				terms = append(terms, lp.Term{Var: mdl.xu[t][u], Coef: ins.loads[u]})
			}
		}
		mdl.capRow[t] = -1
		if len(terms) > 0 {
			mdl.capRow[t] = prob.NumConstraints()
			prob.AddConstraint(terms, lp.LE, 0)
		}
	}
	// (14) in prefix form: X_{cQ} ≤ X_{cu} for every u ∈ Q and c ≤ C-2.
	for q := 0; q < nQ; q++ {
		for _, u := range ins.Sys.Quorum(q) {
			for t := 0; t < c-1; t++ {
				prob.AddConstraint([]lp.Term{
					{Var: pq[t][q], Coef: 1}, {Var: pu[t][u], Coef: -1},
				}, lp.LE, 0)
			}
		}
	}
	return mdl, nil
}

// sourceClasses computes the node-rank order around source v0 — sorted by
// (distance, capacity, id); the capacity tie-break maximizes class merging —
// together with the per-rank distances and the rank→class grouping. Ranks
// with identical (distance, capacity) share a class and are interchangeable
// for the LP: same objective coefficient, same per-node capacity, same
// constraint-(13) forbidden set. The returned slices alias the solver's
// scratch and are valid until the next sourceClasses call on this solver.
func (sv *ssqppSolver) sourceClasses(v0 int) (order []int, dist []float64, classOf []int, nClasses int) {
	ins := sv.ins
	n := ins.M.N()
	if cap(sv.order) < n {
		sv.order = make([]int, n)
		sv.dist = make([]float64, n)
		sv.classOf = make([]int, n)
	}
	order, dist, classOf = sv.order[:n], sv.dist[:n], sv.classOf[:n]
	row := ins.M.Row(v0)
	for v := 0; v < n; v++ {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		oi, oj := order[i], order[j]
		if row[oi] != row[oj] {
			return row[oi] < row[oj]
		}
		if ins.Cap[oi] != ins.Cap[oj] {
			return ins.Cap[oi] < ins.Cap[oj]
		}
		return oi < oj
	})
	for t, v := range order {
		dist[t] = row[v]
	}
	for t := range order {
		if t > 0 {
			if dist[t] == dist[t-1] && ins.Cap[order[t]] == ins.Cap[order[t-1]] {
				classOf[t] = classOf[t-1]
			} else {
				classOf[t] = classOf[t-1] + 1
			}
		} else {
			classOf[0] = 0
		}
	}
	return order, dist, classOf, classOf[n-1] + 1
}

// configure installs the source-specific parts of the model into a clone of
// the skeleton: objective costs, capacity right-hand sides, and the
// constraint-(13) forbidden set. classDist, classCap and classSize give the
// per-class distance, per-node capacity, and node count.
func (mdl *ssqppModel) configure(prob *lp.Problem, ins *Instance, classDist, classCap []float64, classSize []int) {
	for t := 0; t < mdl.c; t++ {
		for q := 0; q < mdl.nQ; q++ {
			prob.SetCost(mdl.xq[t][q], ins.Strat.P(q)*classDist[t])
		}
		if mdl.capRow[t] >= 0 {
			prob.SetRHS(mdl.capRow[t], classCap[t]*float64(classSize[t]))
		}
		capT := classCap[t] * (1 + capTol)
		for u := 0; u < mdl.nU; u++ {
			prob.SetFixed(mdl.xu[t][u], ins.loads[u] > capT)
		}
	}
}

// expandClasses spreads the class-space solution xc evenly over each class's
// ranks, restoring a fractional per-rank solution of the paper's LP with the
// same objective (see the aggregation comment at the top of the file).
func expandClasses(xc [][]float64, classOf []int) [][]float64 {
	n := len(classOf)
	nU := 0
	if len(xc) > 0 {
		nU = len(xc[0])
	}
	size := make([]float64, len(xc))
	for _, c := range classOf {
		size[c]++
	}
	out := make([][]float64, n)
	for t := 0; t < n; t++ {
		c := classOf[t]
		out[t] = make([]float64, nU)
		for u := 0; u < nU; u++ {
			out[t][u] = xc[c][u] / size[c]
		}
	}
	return out
}

// ssqppSolver runs per-source SSQPP LP solves against the instance's shared
// skeletons, owning private re-costable clones and an LP workspace. One
// solver serves any number of sources sequentially; concurrent solves need
// one solver each (skeleton builds are still shared through the instance
// cache).
type ssqppSolver struct {
	ins   *Instance
	probs map[int]*lp.Problem // class count → private clone
	ws    *lp.Workspace
	gws   *gap.Workspace // network scratch for the rounding flow
	rec   obs.Rec        // telemetry route: ambient by default, a worker shard in the parallel solver

	// Per-solve scratch reused across the sources this solver handles; the
	// slices returned by sourceClasses (and embedded into ssqppFrac) alias it.
	order     []int
	dist      []float64
	classOf   []int
	classDist []float64
	classCap  []float64
	classSize []int
}

func newSSQPPSolver(ins *Instance) *ssqppSolver {
	return &ssqppSolver{
		ins:   ins,
		probs: make(map[int]*lp.Problem),
		ws:    lp.NewWorkspace(),
		gws:   gap.NewWorkspace(),
	}
}

// setRec points the solver and both of its workspaces at a telemetry route.
// Parallel workers install their shard's recorder so every span and metric
// of the per-source pipeline is buffered locally instead of contending on
// the shared collector.
func (sv *ssqppSolver) setRec(r obs.Rec) {
	sv.rec = r
	sv.ws.Rec = r
	sv.gws.Rec = r
}

// solveLP solves the SSQPP relaxation for source v0 against the (cached)
// class-space skeleton, returning the fractional solution in node-rank
// space. The solve goes through SolveHot, so it re-enters phase 2 from the
// optimal basis of this solver's previous solve when that solve used the
// same clone and the edit can be absorbed (see solveRun); otherwise it is
// cold. The returned frac's order and dist slices alias the solver's
// scratch and are valid until the next solveLP call on this solver.
func (sv *ssqppSolver) solveLP(v0 int) (*ssqppFrac, error) {
	sp := sv.rec.Start("ssqpp.lp")
	defer sp.End()
	ins := sv.ins
	order, dist, classOf, nClasses := sv.sourceClasses(v0)
	if cap(sv.classDist) < nClasses {
		sv.classDist = make([]float64, nClasses)
		sv.classCap = make([]float64, nClasses)
		sv.classSize = make([]int, nClasses)
	}
	classDist := sv.classDist[:nClasses]
	classCap := sv.classCap[:nClasses]
	classSize := sv.classSize[:nClasses]
	for c := range classSize {
		classSize[c] = 0
	}
	for t, c := range classOf {
		classDist[c] = dist[t]
		classCap[c] = ins.Cap[order[t]]
		classSize[c]++
	}

	mdl, err := ins.ssqppModelFor(nClasses)
	if err != nil {
		return nil, err
	}
	prob, ok := sv.probs[nClasses]
	if !ok {
		prob = mdl.prob.Clone()
		sv.probs[nClasses] = prob
	}
	mdl.configure(prob, ins, classDist, classCap, classSize)
	sol, _, err := prob.SolveHot(sv.ws)
	if err != nil {
		return nil, fmt.Errorf("placement: SSQPP LP for v0=%d: %w", v0, err)
	}
	if err := prob.VerifySolution(sol, 1e-6); err != nil {
		return nil, fmt.Errorf("placement: SSQPP LP for v0=%d returned an infeasible point: %w", v0, err)
	}
	xc := make([][]float64, nClasses)
	for t := 0; t < nClasses; t++ {
		xc[t] = make([]float64, mdl.nU)
		for u := 0; u < mdl.nU; u++ {
			if !prob.Fixed(mdl.xu[t][u]) {
				xc[t][u] = sol.X[mdl.xu[t][u]]
			}
		}
	}
	return &ssqppFrac{
		order: order,
		dist:  dist,
		xu:    expandClasses(xc, classOf),
		obj:   sol.Objective,
	}, nil
}
