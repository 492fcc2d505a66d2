// Package gap implements the Generalized Assignment Problem machinery the
// paper builds on (Definition 3.10): the LP relaxation (15)–(18) of Lenstra–
// Shmoys–Tardos, and the Shmoys–Tardos rounding theorem (Theorem 3.11),
// which converts any fractional solution into an integral assignment of cost
// no more than the fractional cost, loading each machine i by at most
// T_i + p_i^max (the largest load of any job fractionally assigned to i).
//
// The paper uses this twice: to round the filtered SSQPP LP solution
// (Theorem 3.12) and to solve the total-delay placement problem directly
// (Theorem 5.1).
package gap

import (
	"fmt"
	"math"
	"sort"

	"quorumplace/internal/flow"
	"quorumplace/internal/obs"
)

// Instance is a GAP instance: jobs must each be assigned to one machine;
// assigning job j to machine i costs Cost[i][j] and consumes Load[i][j] of
// machine i's capacity T[i]. A Load entry of +Inf forbids the pair.
type Instance struct {
	Cost [][]float64 // [machine][job]
	Load [][]float64 // [machine][job]; +Inf = forbidden
	T    []float64   // machine capacities
}

// NumMachines returns the number of machines.
func (ins *Instance) NumMachines() int { return len(ins.T) }

// NumJobs returns the number of jobs (0 for an empty instance).
func (ins *Instance) NumJobs() int {
	if len(ins.Cost) == 0 {
		return 0
	}
	return len(ins.Cost[0])
}

// Validate checks dimensional consistency and value sanity.
func (ins *Instance) Validate() error {
	m := len(ins.T)
	if len(ins.Cost) != m || len(ins.Load) != m {
		return fmt.Errorf("gap: %d machines but %d cost rows and %d load rows", m, len(ins.Cost), len(ins.Load))
	}
	n := ins.NumJobs()
	for i := 0; i < m; i++ {
		if len(ins.Cost[i]) != n || len(ins.Load[i]) != n {
			return fmt.Errorf("gap: machine %d has %d costs and %d loads, want %d", i, len(ins.Cost[i]), len(ins.Load[i]), n)
		}
		if ins.T[i] < 0 || math.IsNaN(ins.T[i]) {
			return fmt.Errorf("gap: machine %d capacity %v", i, ins.T[i])
		}
		for j := 0; j < n; j++ {
			if math.IsNaN(ins.Cost[i][j]) {
				return fmt.Errorf("gap: cost[%d][%d] is NaN", i, j)
			}
			if l := ins.Load[i][j]; l < 0 || math.IsNaN(l) {
				return fmt.Errorf("gap: load[%d][%d] = %v", i, j, l)
			}
		}
	}
	return nil
}

// fracTol is the threshold below which fractional assignments are treated
// as zero during rounding (LP roundoff noise).
const fracTol = 1e-9

// Workspace carries the scratch of Round across calls: the slot-graph edge
// buffers and the flow solver's network and scratch arrays. Reusing one
// workspace makes the warm rounding path allocation-free except for the
// returned assignment. A Workspace is not safe for concurrent use.
type Workspace struct {
	// Rec routes the rounding telemetry; the zero value records through the
	// ambient package-level collector, worker shards install their own.
	// RoundWith propagates it to the embedded flow workspace.
	Rec obs.Rec

	flow        *flow.Workspace
	slotMachine []int       // slot index → machine
	jobs        []int       // per-machine fractional job scratch
	edges       []roundEdge // job×slot edges in generation order
	sorted      []roundEdge // edges counting-sorted by job
	jobStart    []int       // counting-sort offsets (len n+1)
}

// NewWorkspace returns an empty rounding workspace.
func NewWorkspace() *Workspace {
	return &Workspace{flow: flow.NewWorkspace()}
}

// roundEdge is one allowed job→slot pairing in the rounding graph.
type roundEdge struct {
	job, slot int
	cost      float64
}

// Round applies the Shmoys–Tardos rounding (Theorem 3.11) to the fractional
// solution y[machine][job]: each job j must have Σ_i y_ij ≈ 1. It returns
// assign[job] = machine with:
//
//   - total cost ≤ the fractional cost Σ c_ij y_ij, and
//   - for each machine i, Σ_{j assigned to i} p_ij ≤ Σ_j p_ij y_ij + p_i^max,
//     where p_i^max is the largest load among jobs with y_ij > 0.
//
// Jobs are only ever assigned to machines they were fractionally assigned
// to, which is what the SSQPP filtering argument (Lemma 3.9) relies on.
func Round(ins *Instance, y [][]float64) ([]int, float64, error) {
	return RoundWith(nil, ins, y)
}

// RoundWith is Round solving against a reusable Workspace (nil behaves like
// Round). Callers rounding many fractional solutions in a row — the
// per-source SSQPP roundings of the QPP reduction — hold one workspace per
// worker so the slot graph and the min-cost-flow scratch are recycled
// instead of reallocated.
func RoundWith(ws *Workspace, ins *Instance, y [][]float64) ([]int, float64, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.flow.Rec = ws.Rec
	sp := ws.Rec.Start("gap.round")
	defer sp.End()
	if err := ins.Validate(); err != nil {
		return nil, 0, err
	}
	m, n := ins.NumMachines(), ins.NumJobs()
	if len(y) != m {
		return nil, 0, fmt.Errorf("gap: fractional solution has %d machines, want %d", len(y), m)
	}
	var fractionalVars int64
	for j := 0; j < n; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			if len(y[i]) != n {
				return nil, 0, fmt.Errorf("gap: fractional row %d has %d jobs, want %d", i, len(y[i]), n)
			}
			if y[i][j] < -fracTol {
				return nil, 0, fmt.Errorf("gap: y[%d][%d] = %v is negative", i, j, y[i][j])
			}
			if y[i][j] > fracTol && math.IsInf(ins.Load[i][j], 1) {
				return nil, 0, fmt.Errorf("gap: y[%d][%d] = %v but the pair is forbidden", i, j, y[i][j])
			}
			if y[i][j] > fracTol {
				fractionalVars++
			}
			sum += y[i][j]
		}
		if math.Abs(sum-1) > 1e-6 {
			return nil, 0, fmt.Errorf("gap: job %d has fractional mass %v, want 1", j, sum)
		}
	}
	ws.Rec.Count("gap.fractional_vars", fractionalVars)

	// Slot construction: for each machine, order its fractionally assigned
	// jobs by nonincreasing load and pack them greedily into slots of unit
	// fractional mass. A job split across two consecutive slots appears in
	// both. The resulting job×slot bipartite graph admits the fractional
	// solution as a fractional matching, so a min-cost integral matching
	// costs no more; because slots are filled in load order, machine i
	// receives at most one job "extra" beyond its fractional load.
	slotMachine := ws.slotMachine[:0]
	edges := ws.edges[:0]
	for i := 0; i < m; i++ {
		jobs := ws.jobs[:0]
		for j := 0; j < n; j++ {
			if y[i][j] > fracTol {
				jobs = append(jobs, j)
			}
		}
		if len(jobs) == 0 {
			ws.jobs = jobs
			continue
		}
		sort.SliceStable(jobs, func(a, b int) bool {
			return ins.Load[i][jobs[a]] > ins.Load[i][jobs[b]]
		})
		cur := len(slotMachine)
		slotMachine = append(slotMachine, i)
		room := 1.0
		for _, j := range jobs {
			rem := y[i][j]
			for rem > fracTol {
				edges = append(edges, roundEdge{job: j, slot: cur, cost: ins.Cost[i][j]})
				if rem <= room+fracTol {
					room -= rem
					rem = 0
				} else {
					rem -= room
					room = 0
				}
				if room <= fracTol && rem > fracTol {
					cur = len(slotMachine)
					slotMachine = append(slotMachine, i)
					room = 1.0
				}
			}
		}
		ws.jobs = jobs
	}
	ws.slotMachine, ws.edges = slotMachine, edges
	ns := len(slotMachine)
	ws.Rec.Count("gap.slots", int64(ns))

	// Counting-sort the edges by job (stable, so each job's slots stay in
	// increasing order), giving the same arc insertion order as the dense
	// job-major assignment matrix the rounding used to build — the min-cost
	// matching, and hence tie-breaking among equal-cost optima, is
	// bit-identical to the dense path while touching only the real edges.
	if cap(ws.jobStart) < n+1 {
		ws.jobStart = make([]int, n+1)
	}
	jobStart := ws.jobStart[:n+1]
	for j := range jobStart {
		jobStart[j] = 0
	}
	for _, e := range edges {
		jobStart[e.job+1]++
	}
	for j := 1; j <= n; j++ {
		jobStart[j] += jobStart[j-1]
	}
	if cap(ws.sorted) < len(edges) {
		ws.sorted = make([]roundEdge, len(edges))
	}
	sorted := ws.sorted[:len(edges)]
	next := jobStart[:n] // consumed as write cursors; restored below
	for _, e := range edges {
		sorted[next[e.job]] = e
		next[e.job]++
	}
	// next[j] now equals the start of job j+1's run; sorted[start:next[j]]
	// with start = 0 for j = 0 and next[j-1] otherwise spans job j's edges.

	// Build the assignment network directly: 0 = source, 1..n = jobs,
	// n+1..n+ns = slots, n+ns+1 = sink; every slot holds one job.
	src, snk := 0, n+ns+1
	nw := ws.flow.NewNetwork(n + ns + 2)
	start := 0
	for j := 0; j < n; j++ {
		nw.AddEdge(src, 1+j, 1, 0)
		for _, e := range sorted[start:next[j]] {
			nw.AddEdge(1+j, 1+n+e.slot, 1, e.cost)
		}
		start = next[j]
	}
	for s := 0; s < ns; s++ {
		nw.AddEdge(1+n+s, snk, 1, 0)
	}
	res, err := nw.SolveAssignment(src, snk, int64(n))
	if err != nil {
		return nil, 0, fmt.Errorf("gap: rounding matching failed: %w", err)
	}
	assign := make([]int, n)
	for j := 0; j < n; j++ {
		s := nw.MatchedNeighbor(1 + j)
		if s < 0 {
			return nil, 0, fmt.Errorf("gap: internal error: job %d unmatched after full flow", j)
		}
		assign[j] = slotMachine[s-1-n]
	}
	return assign, res.Cost, nil
}

// Loads returns the per-machine load of an integral assignment.
func Loads(ins *Instance, assign []int) []float64 {
	loads := make([]float64, ins.NumMachines())
	for j, i := range assign {
		loads[i] += ins.Load[i][j]
	}
	return loads
}

// MaxFractionalLoad returns, for each machine, the largest load among jobs
// fractionally assigned to it (p_i^max in Theorem 3.11), zero if none.
func MaxFractionalLoad(ins *Instance, y [][]float64) []float64 {
	out := make([]float64, ins.NumMachines())
	for i := range y {
		for j, v := range y[i] {
			if v > fracTol && ins.Load[i][j] > out[i] {
				out[i] = ins.Load[i][j]
			}
		}
	}
	return out
}
