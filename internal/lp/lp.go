// Package lp implements a general-purpose linear-programming solver: a
// two-phase simplex method over a flat (single-allocation, row-major)
// tableau with Bland's anti-cycling rule. The entering-column rule is
// picked from the tableau's size: candidate-list Dantzig pricing below
// 2^17 cells (m × stride; devexMinCells), Devex reference-weight pricing
// (Harris, 1973) from there up. Devex prefers short tableau columns, so
// its pivots touch fewer rows; that saves more elimination than its full
// scan of the columns costs on the large SSQPP LPs, and less on small
// ones, where a full scan is most of a pivot's work. Each solve reports
// its work as telemetry counters: lp.pivots, lp.elim_updates (pivot-row
// nonzeros × rows updated, summed over pivots) and lp.pricing_scans
// (full-width pricing passes, which under Devex means every pivot).
//
// The quorum-placement algorithms need two LPs solved exactly enough to
// carry the paper's guarantees: the Single-Source Quorum Placement LP
// (Eqs. 9–14 of the paper) and the Generalized Assignment LP (Eqs. 15–18,
// Shmoys–Tardos). Go has no stdlib LP solver, so this package provides one.
//
// All variables are non-negative; constraints may be ≤, = or ≥; the
// objective is minimized. Problems are built incrementally:
//
//	p := lp.NewProblem()
//	x := p.AddVar(3.0, "x")         // cost coefficient 3
//	y := p.AddVar(2.0, "y")
//	p.AddConstraint([]lp.Term{{x, 1}, {y, 1}}, lp.GE, 4)
//	sol, err := p.Solve()
//
// Hot callers that solve many structurally identical programs (the SSQPP
// pipeline solves one LP per candidate source) use two further hooks:
//
//   - a Workspace holds every solver buffer and is reused across solves, so
//     a warm solve performs no tableau allocation (Solve draws workspaces
//     from an internal pool; SolveWith pins an explicit one);
//   - Clone/SetCost/SetRHS/SetFixed re-cost a built model in place instead
//     of rebuilding it, sharing the constraint sparsity across solves;
//   - SolveHot re-solves a re-costed model against the optimal basis the
//     workspace retains from its previous solve of the same model, skipping
//     tableau construction and phase 1 entirely (the incremental path of
//     the quorumd re-planning ticks).
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"quorumplace/internal/obs"
)

// Rel is the relation of a linear constraint.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ aᵢxᵢ ≤ b
	GE            // Σ aᵢxᵢ ≥ b
	EQ            // Σ aᵢxᵢ = b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Term is one coefficient of a linear constraint: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

// Status describes the outcome of Solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrInfeasible and ErrUnbounded are returned by Solve for abnormal
// terminations; the Solution carries the matching Status as well. Returned
// errors may wrap these sentinels with context, so match with errors.Is.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
)

type constraint struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create problems with NewProblem.
type Problem struct {
	costs []float64
	names []string
	fixed []bool // fixed-to-zero variables; nil = none
	cons  []constraint
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddVar adds a non-negative variable with the given objective (cost)
// coefficient and returns its index. The name is used in error messages and
// debugging output only; it may be empty.
func (p *Problem) AddVar(cost float64, name string) int {
	p.costs = append(p.costs, cost)
	p.names = append(p.names, name)
	if p.fixed != nil {
		p.fixed = append(p.fixed, false)
	}
	return len(p.costs) - 1
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.costs) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddConstraint adds the constraint Σ term ≤/=/≥ rhs. Terms referring to the
// same variable are summed. It panics on out-of-range variable indices,
// which always indicate a programming error in the model builder.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.costs) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d (have %d)", t.Var, len(p.costs)))
		}
	}
	cp := append([]Term(nil), terms...)
	p.cons = append(p.cons, constraint{terms: cp, rel: rel, rhs: rhs})
}

// SetCost overwrites the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) {
	p.costs[v] = cost
}

// SetRHS overwrites the right-hand side of constraint i (in AddConstraint
// order), leaving its terms and relation untouched.
func (p *Problem) SetRHS(i int, rhs float64) {
	p.cons[i].rhs = rhs
}

// SetFixed fixes variable v to zero (or releases it). A fixed variable
// keeps its rows and columns in the model but never enters the basis, which
// is exactly equivalent to omitting it — the hook lets one model skeleton
// serve many solves that forbid different variable subsets.
func (p *Problem) SetFixed(v int, fixed bool) {
	if p.fixed == nil {
		if !fixed {
			return
		}
		p.fixed = make([]bool, len(p.costs))
	}
	p.fixed[v] = fixed
}

// Fixed reports whether variable v is fixed to zero.
func (p *Problem) Fixed(v int) bool {
	return p.fixed != nil && p.fixed[v]
}

// Clone returns an independent copy of the problem that shares the
// (immutable) constraint term slices with the receiver. Costs, right-hand
// sides and fixed flags are deep-copied, so SetCost/SetRHS/SetFixed on the
// clone never affect the original — the intended pattern for re-costing one
// model skeleton concurrently from several goroutines.
func (p *Problem) Clone() *Problem {
	cp := &Problem{
		costs: append([]float64(nil), p.costs...),
		names: append([]string(nil), p.names...),
		cons:  append([]constraint(nil), p.cons...),
	}
	if p.fixed != nil {
		cp.fixed = append([]bool(nil), p.fixed...)
	}
	return cp
}

func (p *Problem) varName(j int) string {
	if j < len(p.names) && p.names[j] != "" {
		return p.names[j]
	}
	return fmt.Sprintf("x%d", j)
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // values of the variables, in AddVar order
}

// solver tolerances. eps is the general feasibility/pivot tolerance; any
// tableau entry smaller in magnitude is treated as zero.
const (
	eps          = 1e-9
	phase1Tol    = 1e-7
	blandTrigger = 5000 // iterations of Dantzig or Devex pricing before switching to Bland
	candListCap  = 24   // pricing candidate-list size (partial Dantzig)
)

// devexMinCells is the tableau size (m × stride cells) from which pricing
// switches from the candidate-list Dantzig rule to Devex. Devex scans every
// live column on every pivot, so it pays only where that scan is cheap next
// to the elimination it saves: its reference weights steer the entering
// column towards short tableau columns, which touch fewer rows. Anchors,
// counted in lp.elim_updates: plan's SSQPP LPs (851 × 1,338 ≈ 1.14 M
// cells), the broom's in BenchmarkParallelQPP (up to 339 × 678 ≈ 230 k)
// and the 40-host wanreplica instance's run Devex and do 3.2–4.4× less
// elimination; the daemon's GAP LPs (2,700 cells in perfbench),
// E1QPPApprox's SSQPP LPs (at most 32,400) and E4SSQPP's (43,212) stay on
// Dantzig, where Devex would double their elimination and slow them down.
const devexMinCells = 1 << 17

// rowKind is the per-row normalization record built before the tableau.
type rowKind struct {
	rel Rel
	rhs float64
	neg bool // row was multiplied by -1 to make rhs ≥ 0
}

// Workspace owns every buffer a solve needs: the flat tableau, the
// objective row, the basis, and the pricing scratch lists. Reusing one
// workspace across solves makes a warm solve allocation-free up to the
// returned Solution. A Workspace is not safe for concurrent use; give each
// goroutine its own. The zero value is ready to use.
type Workspace struct {
	// Rec routes this workspace's telemetry. The zero value records through
	// the ambient package-level collector (sequential behavior); parallel
	// workers set it to their shard's recorder so solves under way on
	// different goroutines never contend on the collector and their spans
	// parent correctly (see obs.Shard).
	Rec obs.Rec

	tab   []float64
	obj   []float64
	basis []int
	kinds []rowKind
	nz    []int
	cand  []int
	dw    []float64 // Devex reference weights, one per column
	sx    simplex
	used  bool
	warm  warmState
}

// warmState is the metadata SolveHot needs to re-solve the problem the
// workspace last solved without rebuilding the tableau. It is recorded at
// the end of every successful solveSimplex — but only on workspaces that
// have been through SolveHot, so one-shot Solve/SolveWith callers never pay
// for snapshots they will throw away — and invalidated at the start of the
// next build (so a failed build can never leave a stale-but-valid state
// behind).
type warmState struct {
	record   bool     // set by SolveHot: only hot-path workspaces snapshot a basis
	prob     *Problem // identity of the model the tableau encodes
	n, m     int
	stride   int
	total    int
	firstArt int
	// unitCol[i] is the tableau column holding ±B⁻¹eᵢ for constraint row i:
	// the slack column for LE rows (sign +1), the surplus column for GE rows
	// (sign −1), and −1 for EQ rows, which carry no unit column through
	// phase 2 (their artificial column goes stale once width shrinks).
	unitCol  []int
	unitSign []float64
	rhs      []float64 // normalized (non-negative) rhs the tableau was built with
	neg      []bool    // row i was multiplied by −1 during normalization
	fixed    []bool    // snapshot of p.fixed at build time (nil = none)
	clean    bool      // no zeroed redundant rows: every basis entry < firstArt
	valid    bool
	scratch  []float64 // candidate rhs column, committed only if feasible
}

// ResetWarm discards the workspace's retained basis so the next SolveHot
// falls back to a cold solve. Benchmarks use it to isolate the cold path,
// and callers that need a warm history fixed by their own input call it
// at each chain's start (placement's QPP sweep does, so its results do not
// depend on the worker count); a warm solve is optimal either way.
func (ws *Workspace) ResetWarm() {
	ws.warm.valid = false
	ws.warm.prob = nil
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool recycles workspaces across Solve calls so that steady-state
// solving through the convenience entry point also runs allocation-free.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// Solve runs the two-phase simplex method using a pooled workspace. On
// Status != Optimal the returned error wraps ErrInfeasible or ErrUnbounded
// and Solution.X is nil.
func (p *Problem) Solve() (*Solution, error) {
	ws := wsPool.Get().(*Workspace)
	ws.Rec = obs.Rec{} // pooled workspaces must not inherit a stale shard
	sol, err := p.SolveWith(ws)
	ws.ResetWarm() // don't pin the Problem (and a false warm hit) in the pool
	wsPool.Put(ws)
	return sol, err
}

// SolveWith is Solve with an explicit workspace, for callers that solve in
// a loop and want buffer reuse pinned rather than pooled.
func (p *Problem) SolveWith(ws *Workspace) (*Solution, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	sp := ws.Rec.Start("lp.solve")
	defer sp.End()
	ws.Rec.Count("lp.solves", 1)
	n := len(p.costs)
	if len(p.cons) == 0 {
		// Minimizing c·x over x ≥ 0: bounded iff all (free) costs ≥ 0,
		// optimum 0.
		for j, c := range p.costs {
			if c < -eps && !p.Fixed(j) {
				return &Solution{Status: Unbounded},
					fmt.Errorf("%w: variable %s has negative cost %v and no constraints", ErrUnbounded, p.varName(j), c)
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, n)}, nil
	}
	sol, err := p.solveSimplex(ws)
	s := &ws.sx
	s.report(ws.Rec)
	ws.Rec.Observe("lp.constraints_per_solve", float64(len(p.cons)))
	ws.Rec.Observe("lp.vars_per_solve", float64(n))
	return sol, err
}

// growF resizes a float64 buffer to length n, reusing capacity.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growI resizes an int buffer to length n, reusing capacity.
func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// solveSimplex builds the tableau into ws and runs both phases.
func (p *Problem) solveSimplex(ws *Workspace) (*Solution, error) {
	ws.warm.valid = false // stale until this build completes successfully
	n := len(p.costs)
	m := len(p.cons)

	// Count extra columns: one slack per LE, one surplus per GE,
	// one artificial per GE or EQ row (and per LE row with negative rhs,
	// handled by pre-normalizing rhs to be non-negative).
	if cap(ws.kinds) < m {
		ws.kinds = make([]rowKind, m)
	}
	kinds := ws.kinds[:m]
	slackCount, artCount := 0, 0
	for i := range p.cons {
		c := &p.cons[i]
		rel, rhs, neg := c.rel, c.rhs, false
		if rhs < 0 {
			rhs, neg = -rhs, true
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		kinds[i] = rowKind{rel: rel, rhs: rhs, neg: neg}
		switch rel {
		case LE:
			slackCount++
		case GE:
			slackCount++ // surplus
			artCount++
		case EQ:
			artCount++
		}
	}

	total := n + slackCount + artCount
	stride := total + 1 // column `total` is the rhs
	if ws.used && cap(ws.tab) >= m*stride {
		ws.Rec.Count("lp.workspace_reuses", 1)
	}
	ws.used = true

	// Tableau: m rows of length stride in one contiguous row-major array,
	// so pivots stream cache-linearly; the two objective rows (phase-1 and
	// phase-2 reduced costs) live in a separate buffer.
	ws.tab = growF(ws.tab, m*stride)
	tab := ws.tab
	for i := range tab {
		tab[i] = 0
	}
	ws.obj = growF(ws.obj, stride)
	devex := m*stride >= devexMinCells
	if devex {
		ws.dw = growF(ws.dw, total)
	}
	ws.basis = growI(ws.basis, m)
	basis := ws.basis

	slackAt := n
	artAt := n + slackCount
	for i := range p.cons {
		c := &p.cons[i]
		k := kinds[i]
		sign := 1.0
		if k.neg {
			sign = -1
		}
		row := tab[i*stride : (i+1)*stride]
		for _, t := range c.terms {
			row[t.Var] += sign * t.Coef
		}
		row[total] = k.rhs
		switch k.rel {
		case LE:
			row[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		}
	}

	s := &ws.sx
	*s = simplex{
		tab:    tab,
		obj:    ws.obj,
		stride: stride,
		m:      m,
		total:  total,
		width:  total,
		basis:  basis,
		fixed:  p.fixed,
		nz:     ws.nz,
		cand:   ws.cand,
		devex:  devex,
		dw:     ws.dw,
	}
	defer func() {
		// Return possibly-regrown scratch buffers to the workspace.
		ws.nz = s.nz
		ws.cand = s.cand
	}()

	firstArt := n + slackCount
	if artCount > 0 {
		// Phase 1: minimize the sum of artificial variables.
		p1 := ws.Rec.Start("lp.phase1")
		s.setPhase1Objective(firstArt)
		status := s.run()
		ws.Rec.Count("lp.phase1_iters", s.pivots)
		p1.End()
		if status == Unbounded {
			// Phase-1 objective is bounded below by 0; unbounded means a bug.
			return nil, fmt.Errorf("lp: internal error: phase-1 unbounded")
		}
		if s.objValue() > phase1Tol {
			return &Solution{Status: Infeasible}, ErrInfeasible
		}
		// Drive any remaining artificial variables out of the basis.
		s.evictArtificials(firstArt)
	}

	// Phase 2: original objective over structural + slack columns only.
	// Shrinking the active width freezes the artificial columns: they can
	// neither enter the basis nor receive pivot updates (their entries are
	// dead after phase 1).
	p2 := ws.Rec.Start("lp.phase2")
	phase1Pivots := s.pivots
	s.width = firstArt
	s.setCostObjective(p.costs)
	status := s.run()
	ws.Rec.Count("lp.phase2_iters", s.pivots-phase1Pivots)
	p2.End()
	if status == Unbounded {
		return &Solution{Status: Unbounded}, ErrUnbounded
	}

	ws.recordWarm(p, n, m, stride, total, firstArt, kinds)
	return p.extractSolution(s), nil
}

// extractSolution reads the structural variable values out of an optimal
// tableau and recomputes the objective from the original costs.
func (p *Problem) extractSolution(s *simplex) *Solution {
	n := len(p.costs)
	x := make([]float64, n)
	for i, b := range s.basis {
		if b < n {
			x[b] = s.tab[i*s.stride+s.total]
		}
	}
	// Clamp tiny negatives introduced by roundoff.
	for j := range x {
		if x[j] < 0 && x[j] > -1e-7 {
			x[j] = 0
		}
	}
	objVal := 0.0
	for j := range x {
		objVal += p.costs[j] * x[j]
	}
	return &Solution{Status: Optimal, Objective: objVal, X: x}
}

// recordWarm snapshots everything SolveHot needs to re-enter phase 2
// against the optimal basis now sitting in the workspace tableau.
func (ws *Workspace) recordWarm(p *Problem, n, m, stride, total, firstArt int, kinds []rowKind) {
	w := &ws.warm
	if !w.record {
		return
	}
	w.prob, w.n, w.m = p, n, m
	w.stride, w.total, w.firstArt = stride, total, firstArt
	w.unitCol = growI(w.unitCol, m)
	w.unitSign = growF(w.unitSign, m)
	w.rhs = growF(w.rhs, m)
	if cap(w.neg) < m {
		w.neg = make([]bool, m)
	}
	w.neg = w.neg[:m]
	slackAt := n
	for i, k := range kinds {
		switch k.rel {
		case LE:
			w.unitCol[i], w.unitSign[i] = slackAt, 1
			slackAt++
		case GE:
			w.unitCol[i], w.unitSign[i] = slackAt, -1
			slackAt++
		default: // EQ: no live unit column survives into phase 2
			w.unitCol[i], w.unitSign[i] = -1, 0
		}
		w.rhs[i] = k.rhs
		w.neg[i] = k.neg
	}
	if p.fixed == nil {
		w.fixed = w.fixed[:0]
	} else {
		w.fixed = append(w.fixed[:0], p.fixed...)
	}
	w.clean = true
	for _, b := range ws.basis[:m] {
		if b >= firstArt {
			// evictArtificials zeroed this redundant row, destroying the
			// B⁻¹eᵢ columns it carried; rhs warm updates must go cold.
			w.clean = false
			break
		}
	}
	w.valid = true
}

// fixedMatches reports whether p.fixed still equals the build-time snapshot
// (nil and all-false are equivalent).
func (w *warmState) fixedMatches(p *Problem) bool {
	if p.fixed == nil {
		return len(w.fixed) == 0
	}
	if len(w.fixed) == 0 {
		for _, f := range p.fixed {
			if f {
				return false
			}
		}
		return true
	}
	if len(w.fixed) != len(p.fixed) {
		return false
	}
	for i, f := range p.fixed {
		if w.fixed[i] != f {
			return false
		}
	}
	return true
}

// SolveHot solves the problem, reusing the optimal basis the workspace
// retains from its previous solve of this same Problem value when possible.
// The returned bool reports whether the warm path was taken.
//
// A warm re-solve re-enters phase 2 directly: SetCost changes are priced
// out against the retained basis, and SetRHS changes are applied to the
// tableau's rhs column through the live slack/surplus columns (which hold
// ±B⁻¹eᵢ). It falls back to a full cold solve — identical to SolveWith —
// whenever the retained basis cannot absorb the edit: a different or
// structurally changed Problem, changed fixed-variable flags, an EQ-row rhs
// change, an rhs sign flip under normalization, a redundant row dropped in
// phase 1, or an update that leaves the basis primal infeasible.
func (p *Problem) SolveHot(ws *Workspace) (*Solution, bool, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	w := &ws.warm
	w.record = true
	if !w.valid || w.prob != p || w.n != len(p.costs) || w.m != len(p.cons) ||
		len(p.cons) == 0 || !w.fixedMatches(p) {
		sol, err := p.SolveWith(ws)
		return sol, false, err
	}
	if !ws.applyRHSDeltas(p) {
		sol, err := p.SolveWith(ws)
		return sol, false, err
	}

	sp := ws.Rec.Start("lp.solve_hot")
	defer sp.End()
	ws.Rec.Count("lp.solves", 1)
	ws.Rec.Count("lp.hot_solves", 1)
	s := &ws.sx
	s.pivots, s.degens, s.blandActivations, s.pricingScans, s.elimUpdates = 0, 0, 0, 0, 0
	s.width = w.firstArt
	s.setCostObjective(p.costs)
	status := s.run()
	s.report(ws.Rec)
	if status == Unbounded {
		w.valid = false
		return &Solution{Status: Unbounded}, true, ErrUnbounded
	}
	return p.extractSolution(s), true, nil
}

// applyRHSDeltas folds any SetRHS edits into the tableau's rhs column via
// the retained ±B⁻¹eᵢ unit columns. It reports false when the edits cannot
// be absorbed warm (the caller then re-solves cold); the tableau is only
// mutated on success.
func (ws *Workspace) applyRHSDeltas(p *Problem) bool {
	w := &ws.warm
	s := &ws.sx
	dirty := false
	for i := range p.cons {
		rhs := p.cons[i].rhs
		if (rhs < 0) != w.neg[i] {
			return false // normalization sign flipped; row rebuild required
		}
		norm := rhs
		if w.neg[i] {
			norm = -rhs
		}
		if norm == w.rhs[i] {
			continue
		}
		if w.unitCol[i] < 0 || !w.clean {
			return false // EQ row, or B⁻¹ columns destroyed by a dropped row
		}
		if !dirty {
			w.scratch = growF(w.scratch, w.m)
			for r := 0; r < w.m; r++ {
				w.scratch[r] = s.tab[r*w.stride+w.total]
			}
			dirty = true
		}
		d := norm - w.rhs[i]
		col, sign := w.unitCol[i], w.unitSign[i]
		for r := 0; r < w.m; r++ {
			w.scratch[r] += d * sign * s.tab[r*w.stride+col]
		}
	}
	if !dirty {
		return true
	}
	for r := 0; r < w.m; r++ {
		v := w.scratch[r]
		if v < -eps {
			return false // basis no longer primal feasible; go cold
		}
		if v < 0 {
			w.scratch[r] = 0
		}
	}
	for r := 0; r < w.m; r++ {
		s.tab[r*w.stride+w.total] = w.scratch[r]
	}
	for i := range p.cons {
		rhs := p.cons[i].rhs
		if w.neg[i] {
			rhs = -rhs
		}
		w.rhs[i] = rhs
	}
	return true
}

// simplex holds the tableau state shared by the two phases. The tableau is
// a single row-major array (m rows × stride); row i occupies
// tab[i*stride : (i+1)*stride] with the rhs in column total = stride-1.
type simplex struct {
	tab    []float64
	obj    []float64 // reduced-cost row, length stride (last entry = -objective value)
	stride int
	m      int
	total  int
	width  int // columns < width are live (priced and updated); phase 2 freezes artificials
	basis  []int
	fixed  []bool // fixed-to-zero structural variables (may be nil)

	// pricing scratch: nz is the nonzero-column index list of the current
	// pivot row; cand is the candidate list of negative-reduced-cost columns.
	nz   []int
	cand []int

	// devex selects Devex pricing (tableaus of at least devexMinCells
	// cells); dw holds its reference weights, one per column below total.
	devex bool
	dw    []float64

	// telemetry tallies, accumulated locally (no per-pivot obs calls) and
	// reported once per Solve.
	pivots           int64
	degens           int64 // pivots with a ~zero leaving ratio (degenerate steps)
	blandActivations int64
	pricingScans     int64 // full-width pricing passes (candidate rebuilds, Devex pivots, Bland scans)
	elimUpdates      int64 // Σ over pivots of pivot-row nonzeros × other rows updated
}

// report records the solve's tallies on r.
func (s *simplex) report(r obs.Rec) {
	r.Count("lp.pivots", s.pivots)
	r.Count("lp.degenerate_pivots", s.degens)
	r.Count("lp.bland_activations", s.blandActivations)
	r.Count("lp.pricing_scans", s.pricingScans)
	r.Count("lp.elim_updates", s.elimUpdates)
	r.Observe("lp.pivots_per_solve", float64(s.pivots))
}

func (s *simplex) isFixed(j int) bool { return j < len(s.fixed) && s.fixed[j] }

// setPhase1Objective installs the sum-of-artificials objective and prices
// out the initial basis.
func (s *simplex) setPhase1Objective(firstArt int) {
	for j := range s.obj {
		s.obj[j] = 0
	}
	for j := firstArt; j < s.total; j++ {
		s.obj[j] = 1
	}
	s.priceOutBasis()
}

// setCostObjective installs the original costs as the objective row and
// prices out the current basis.
func (s *simplex) setCostObjective(costs []float64) {
	for j := range s.obj {
		s.obj[j] = 0
	}
	copy(s.obj, costs)
	s.priceOutBasis()
}

// priceOutBasis zeroes the reduced cost of every basic column. Tableau rows
// form an identity over the basis columns, so the elimination order does
// not matter. Any pricing candidates are invalidated, and the Devex
// reference framework restarts at the current basis (every weight 1).
func (s *simplex) priceOutBasis() {
	for i, b := range s.basis {
		if c := s.obj[b]; c != 0 {
			row := s.tab[i*s.stride : (i+1)*s.stride]
			for j := range s.obj {
				s.obj[j] -= c * row[j]
			}
		}
	}
	s.cand = s.cand[:0]
	if s.devex {
		for j := range s.dw {
			s.dw[j] = 1
		}
	}
}

func (s *simplex) objValue() float64 { return -s.obj[s.total] }

// run iterates pivots until optimality or unboundedness.
func (s *simplex) run() Status {
	for iter := 0; ; iter++ {
		bland := iter >= blandTrigger
		if iter == blandTrigger {
			s.blandActivations++
		}
		enter := s.chooseEntering(bland)
		if enter < 0 {
			return Optimal
		}
		leave := s.chooseLeaving(enter, bland)
		if leave < 0 {
			return Unbounded
		}
		if s.tab[leave*s.stride+s.total] <= eps {
			s.degens++
		}
		s.pivot(leave, enter)
	}
}

// chooseEntering picks the entering column. Under Bland's rule it returns
// the lowest-index column with negative reduced cost (a full scan, which is
// what guarantees termination). On tableaus of at least devexMinCells cells
// it uses Devex pricing: the column with the largest d_j²/w_j over every
// live column, w_j being its reference weight. Otherwise it uses
// candidate-list Dantzig pricing: the most negative column among the cached
// candidates, falling back to a full rebuild scan only when every candidate
// has gone non-negative. Optimality is only ever declared by a full scan,
// so partial pricing never changes the result.
func (s *simplex) chooseEntering(bland bool) int {
	if bland {
		s.pricingScans++
		for j := 0; j < s.width; j++ {
			if s.obj[j] < -eps && !s.isFixed(j) {
				return j
			}
		}
		return -1
	}
	if s.devex {
		s.pricingScans++
		best, bestScore := -1, 0.0
		for j := 0; j < s.width; j++ {
			d := s.obj[j]
			if d >= -eps || s.isFixed(j) {
				continue
			}
			if score := d * d / s.dw[j]; score > bestScore {
				best, bestScore = j, score
			}
		}
		return best
	}
	best, bestVal := -1, -eps
	kept := s.cand[:0]
	for _, j := range s.cand {
		if v := s.obj[j]; v < -eps {
			kept = append(kept, j)
			if v < bestVal {
				best, bestVal = j, v
			}
		}
	}
	s.cand = kept
	if best >= 0 {
		return best
	}
	return s.rebuildCandidates()
}

// rebuildCandidates scans every live column once, returning the Dantzig
// (most negative) column and caching the candListCap most negative columns
// for the following pivots.
func (s *simplex) rebuildCandidates() int {
	s.pricingScans++
	s.cand = s.cand[:0]
	best, bestVal := -1, -eps
	worstIdx, worstVal := -1, math.Inf(-1) // least negative cached candidate
	for j := 0; j < s.width; j++ {
		v := s.obj[j]
		if v >= -eps || s.isFixed(j) {
			continue
		}
		if v < bestVal {
			best, bestVal = j, v
		}
		if len(s.cand) < candListCap {
			s.cand = append(s.cand, j)
			if v > worstVal {
				worstVal, worstIdx = v, len(s.cand)-1
			}
		} else if v < worstVal {
			s.cand[worstIdx] = j
			worstVal, worstIdx = math.Inf(-1), -1
			for k, cj := range s.cand {
				if cv := s.obj[cj]; cv > worstVal {
					worstVal, worstIdx = cv, k
				}
			}
		}
	}
	return best
}

// chooseLeaving runs the minimum-ratio test on column enter. Under Bland's
// rule ties are broken by the smallest basis variable index, which together
// with Bland's entering rule guarantees termination.
func (s *simplex) chooseLeaving(enter int, bland bool) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < s.m; i++ {
		a := s.tab[i*s.stride+enter]
		if a <= eps {
			continue
		}
		ratio := s.tab[i*s.stride+s.total] / a
		if ratio < bestRatio-eps {
			best, bestRatio = i, ratio
			continue
		}
		if ratio <= bestRatio+eps && best >= 0 {
			if bland {
				if s.basis[i] < s.basis[best] {
					best = i
				}
			} else if a > s.tab[best*s.stride+enter] {
				// Prefer larger pivots for numerical stability.
				best, bestRatio = i, ratio
			}
		}
	}
	return best
}

// pivot performs a Gauss–Jordan pivot on (row, col). It first collects the
// nonzero columns of the (scaled) pivot row, then updates only those
// columns in every other row: the models this package solves are sparse
// (2–4 nonzeros per row in the telescoped SSQPP formulation), so early
// pivot rows touch a handful of columns instead of the full width and the
// elimination cost tracks fill-in rather than the tableau size. Under
// Devex pricing the same nonzeros update the reference weights.
func (s *simplex) pivot(row, col int) {
	s.pivots++
	stride := s.stride
	rhs := s.total
	pr := s.tab[row*stride : (row+1)*stride]
	inv := 1 / pr[col]
	nz := s.nz[:0]
	for j := 0; j < s.width; j++ {
		if v := pr[j]; v != 0 {
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	pr[rhs] *= inv
	pr[col] = 1 // kill roundoff
	s.nz = nz
	if s.devex {
		s.updateWeights(pr, nz, s.basis[row], col)
	}
	updated := 0
	for i := 0; i < s.m; i++ {
		if i == row {
			continue
		}
		base := i * stride
		f := s.tab[base+col]
		if f == 0 {
			continue
		}
		updated++
		ri := s.tab[base : base+stride]
		for _, j := range nz {
			ri[j] -= f * pr[j]
		}
		ri[rhs] -= f * pr[rhs]
		ri[col] = 0
	}
	s.elimUpdates += int64(len(nz)) * int64(updated)
	if f := s.obj[col]; f != 0 {
		for _, j := range nz {
			s.obj[j] -= f * pr[j]
		}
		s.obj[rhs] -= f * pr[rhs]
		s.obj[col] = 0
	}
	s.basis[row] = col
}

// updateWeights applies the Devex weight update of a pivot on column enter,
// whose basic column leave departs, given the scaled pivot row pr
// (pr[j] = α_rj/α_rq) and its nonzero columns nz: every nonbasic column j
// keeps w_j = max(w_j, pr[j]²·w_q), and the leaving column, whose entry is
// 1/α_rq, gets max(1, w_q/α_rq²).
func (s *simplex) updateWeights(pr []float64, nz []int, leave, enter int) {
	wq := s.dw[enter]
	for _, j := range nz {
		if r := pr[j]; r*r*wq > s.dw[j] {
			s.dw[j] = r * r * wq
		}
	}
	s.dw[leave] = math.Max(1, pr[leave]*pr[leave]*wq)
}

// evictArtificials pivots any artificial variable that remains basic at
// value zero out of the basis (or drops its row as redundant) so that
// phase 2 can proceed on structural and slack columns alone.
func (s *simplex) evictArtificials(firstArt int) {
	for i := 0; i < s.m; i++ {
		if s.basis[i] < firstArt {
			continue
		}
		// Find a non-artificial, non-fixed column with a usable pivot in
		// this row.
		pivoted := false
		for j := 0; j < firstArt; j++ {
			if math.Abs(s.tab[i*s.stride+j]) > 1e-7 && !s.isFixed(j) {
				s.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: every structural coefficient is ~0 and the
			// rhs is ~0 (phase 1 succeeded). Zero it so it never pivots.
			row := s.tab[i*s.stride : (i+1)*s.stride]
			for j := range row {
				row[j] = 0
			}
		}
	}
}
