package placement

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"quorumplace/internal/obs"
	"quorumplace/internal/treedp"
)

// The QPP reduction runs one independent SSQPP pipeline per candidate
// source; the pipelines share nothing mutable beyond the instance's cached
// LP skeletons, so they parallelize perfectly. solveQPP is the single
// implementation behind SolveQPP (one worker) and SolveQPPParallel (a
// bounded worker pool), in two steps:
//
//  1. fan-out — sources are cut into fixed runs (sourceRuns), and workers
//     claim whole runs off one atomic counter. One solver walks a run in
//     ascending order, warm-starting each LP from its predecessor's optimal
//     basis; every run starts cold. The runs depend on the instance alone,
//     so each source's warm history — and hence its LP solution — is the
//     same at every worker count. A worker's solver fetches each skeleton
//     it needs once from the instance cache (built there on first use,
//     under its lock) and keeps it, so the lock stays off the per-source
//     path;
//  2. reduce — each worker folds its sources into a private qppPartial,
//     and the partials are merged deterministically at the end. A partial
//     scores a candidate with the exact AvgMaxDelay only when the
//     candidate's lower bound (delayBound) does not exceed its incumbent,
//     since only the best candidate survives.
//
// The reduction rule — best average max-delay wins, exact ties broken by
// the smaller source id — is associative and commutative, so the merge
// order cannot change the result and every worker count returns identical
// placements and bounds.

// sourceRunLen is the length of the warm-start runs on the LP route. Each
// run pays one cold LP solve and is one unit of claimable parallel work,
// so the length trades the two. A warm solve costs 1–2% of a cold one on
// unit-capacity networks, so runs of 4 already remove about three quarters
// of the LP work; longer runs would save at most the last quarter but
// leave fewer, less even units for the pool. On the broom of
// BenchmarkParallelQPP (n = 25) the runs' cold-solve pivots differ by up
// to 3×: counted in pivots, its 7 runs of 4 let 4 workers reach a 2.6×
// speedup, where 5 runs of 5 would cap them at 1.8×.
const sourceRunLen = 4

// sourceRuns cuts sources 0…n−1 into the consecutive runs the QPP sweep
// walks (the last may be shorter). On the exact-DP route no source reaches
// the LP unless the DP fails, so there is nothing to warm-start and each
// source is a run of its own. The cut depends on the instance only, never
// on the worker count, which is what keeps the sweep's results
// worker-count invariant.
func (ins *Instance) sourceRuns() (runLen, runs int) {
	runLen = sourceRunLen
	if ins.exactDPAuto() {
		runLen = 1
	}
	return runLen, (ins.M.N() + runLen - 1) / runLen
}

// qppPartial folds per-source SSQPP outcomes. Its accumulate/merge rule
// reproduces the sequential ascending-v0 scan exactly: strictly smaller
// average wins, an equal average keeps the smaller source id, the relay
// bound is a min, the LP bound a max, and the surviving error is the one
// from the smallest failing source.
//
// A candidate whose delayBound exceeds the incumbent's average is strictly
// worse than the incumbent, so it could neither win nor tie and is dropped
// unscored; every other candidate is scored exactly. The winner, its
// average and its tie-break are therefore those of scoring every source.
type qppPartial struct {
	mass  []float64 // subset-mass table for delayBound; nil scores every candidate
	res   *SSQPPResult
	avg   float64
	v0    int
	relay float64
	maxLP float64
	err   error
	errV0 int
	evals int64 // exact AvgMaxDelay scorings
}

func (p *qppPartial) init(mass []float64) { p.mass, p.relay = mass, math.Inf(1) }

func (p *qppPartial) add(ins *Instance, alpha float64, v0 int, res *SSQPPResult, err error) {
	if err != nil {
		if p.err == nil || v0 < p.errV0 {
			p.err, p.errV0 = err, v0
		}
		return
	}
	if relay := ins.AvgDistToNode(v0) + alpha/(alpha-1)*res.LPBound; relay < p.relay {
		p.relay = relay
	}
	if res.LPBound > p.maxLP {
		p.maxLP = res.LPBound
	}
	if p.res != nil && p.mass != nil {
		if walk, slack := ins.delayBound(res.Placement, p.mass); walk-slack > p.avg {
			return
		}
	}
	p.evals++
	avg := ins.AvgMaxDelay(res.Placement)
	if p.res == nil || avg < p.avg || (avg == p.avg && v0 < p.v0) {
		p.res, p.avg, p.v0 = res, avg, v0
	}
}

func (p *qppPartial) merge(q *qppPartial) {
	p.evals += q.evals
	if q.err != nil && (p.err == nil || q.errV0 < p.errV0) {
		p.err, p.errV0 = q.err, q.errV0
	}
	if q.relay < p.relay {
		p.relay = q.relay
	}
	if q.maxLP > p.maxLP {
		p.maxLP = q.maxLP
	}
	if q.res != nil && (p.res == nil || q.avg < p.avg || (q.avg == p.avg && q.v0 < p.v0)) {
		p.res, p.avg, p.v0 = q.res, q.avg, q.v0
	}
}

// solveQPP fans the per-source SSQPP solves over the given number of
// workers and reduces the outcomes. parent is the span the fan-out runs
// under: each worker records through an obs.Shard whose spans re-parent
// under it, so recording is contention-free and the merged trace nests each
// worker's pipelines, skeleton builds and DP solves under its
// placement.qpp_worker span.
func solveQPP(ins *Instance, alpha float64, workers int, parent *obs.Span) (*QPPResult, error) {
	n := ins.M.N()
	if n == 0 {
		return nil, fmt.Errorf("placement: empty network")
	}
	obs.Count("placement.qpp_sources", int64(n))

	// One subset-mass table per sweep serves every candidate's delayBound
	// and every exact-DP solve.
	mass := treedp.SubsetMass(ins.Sys, ins.Strat)
	runLen, runs := ins.sourceRuns()
	partials := make([]qppPartial, workers)
	shards := make([]*obs.Shard, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range partials {
		shards[w] = obs.NewShard(parent)
		wg.Add(1)
		go func(p *qppPartial, sh *obs.Shard) {
			defer wg.Done()
			wsp := sh.Start("placement.qpp_worker")
			defer wsp.End()
			p.init(mass)
			// The solver owns re-costable skeleton clones, an LP workspace
			// and a rounding-flow workspace, all reused across its sources.
			sv := newSSQPPSolver(ins, sh.Rec())
			sv.mass = mass
			for r := int(next.Add(1)) - 1; r < runs; r = int(next.Add(1)) - 1 {
				sv.solveRun(r, runLen, alpha, p)
			}
		}(&partials[w], shards[w])
	}
	wg.Wait()
	// Merging partials and shards in worker order keeps both the result
	// and the combined telemetry deterministic.
	var total qppPartial
	total.init(mass)
	for w := range partials {
		total.merge(&partials[w])
		shards[w].Merge()
	}

	obs.Count("placement.delay_evals", total.evals)
	if total.res == nil {
		return nil, fmt.Errorf("placement: SSQPP failed for every source: %w", total.err)
	}
	return &QPPResult{
		Placement:   total.res.Placement,
		AvgMaxDelay: total.avg,
		BestV0:      total.v0,
		Alpha:       alpha,
		RelayBound:  total.relay,
		MaxLPBound:  total.maxLP,
	}, nil
}

// solveRun solves the sources of run r (see sourceRuns) in ascending order
// and folds them into p. The run starts cold; every later LP solve
// re-enters phase 2 from the previous source's optimal basis whenever
// SolveHot can absorb the edit.
func (sv *ssqppSolver) solveRun(r, runLen int, alpha float64, p *qppPartial) {
	sv.ws.ResetWarm()
	for v0 := r * runLen; v0 < min((r+1)*runLen, sv.ins.M.N()); v0++ {
		res, err := sv.solve(v0, alpha)
		p.add(sv.ins, alpha, v0, res, err)
	}
}

// SolveQPPParallel is SolveQPP with the per-source SSQPP solves spread
// across workers goroutines (0 = GOMAXPROCS). The result is identical to
// SolveQPP's for the same instance and α.
func SolveQPPParallel(ins *Instance, alpha float64, workers int) (*QPPResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// More workers than runs would idle: a run is the unit of claimed work.
	if _, runs := ins.sourceRuns(); workers > runs {
		workers = runs
	}
	sp := obs.Start("placement.qpp_parallel")
	defer sp.End()
	obs.Gauge("placement.qpp_workers", float64(workers))
	return solveQPP(ins, alpha, workers, sp)
}
