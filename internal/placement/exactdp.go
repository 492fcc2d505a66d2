package placement

import (
	"fmt"
	"math"

	"quorumplace/internal/obs"
	"quorumplace/internal/treedp"
)

// This file wires the treedp subset DP into the SSQPP/QPP pipeline as an
// exact fast path. SSQPP is NP-hard (Theorem 3.6), but the DP's O(n·3^U)
// cost isolates the exponential in the universe size U, which the paper's
// quorum systems keep tiny; for large networks with small universes the DP
// is both faster than the LP pipeline and exact, so solve() auto-selects it
// when the estimated transition count is affordable. The gate depends only
// on instance shape, never on the source, so sequential and parallel QPP
// sweeps take the same path for every source and stay bit-identical.

// exactDPMinNodes keeps small instances on the LP pipeline, whose behavior
// (LP bounds, integrality gaps, rounding loads) the existing test and
// evaluation surface pins.
const exactDPMinNodes = 64

// exactDPAuto reports whether solve() should route this instance through
// the exact DP instead of the LP pipeline. It admits only instances whose
// worst-case transition count n·3^U is within the DP's own budget, so a
// solve on this route cannot exhaust it.
func (ins *Instance) exactDPAuto() bool {
	n := ins.M.N()
	if n < exactDPMinNodes || ins.Sys.Universe() > treedp.MaxUniverse {
		return false
	}
	return treedp.EstimatedOps(n, ins.Sys.Universe()) <= float64(treedp.DefaultOpsBudget)
}

// SolveSSQPPExact solves the single-source problem to optimality with the
// treedp subset DP, regardless of instance size (the DP's own budget still
// applies). The result uses the SSQPPResult conventions: Delay is the
// recomputed Δ_f(v0) of the returned placement, and LPBound carries the
// optimal objective itself — the tightest valid lower bound — so every
// Theorem 3.7 invariant the auditor checks (Delay ≤ α/(α-1)·LPBound,
// capacity factor ≤ α+1) holds with room to spare: exact placements respect
// capacities outright. alpha must exceed 1, as in SolveSSQPP; it only
// labels the certificate, the DP itself does no filtering.
func SolveSSQPPExact(ins *Instance, v0 int, alpha float64) (*SSQPPResult, error) {
	if alpha <= 1 {
		return nil, fmt.Errorf("placement: filtering parameter alpha = %v must exceed 1", alpha)
	}
	if v0 < 0 || v0 >= ins.M.N() {
		return nil, fmt.Errorf("placement: source %d out of range [0,%d)", v0, ins.M.N())
	}
	return solveSSQPPExactDP(ins, v0, alpha, obs.Rec{}, treedp.SubsetMass(ins.Sys, ins.Strat))
}

// solveSSQPPExactDP runs the DP for one source against the subset-mass
// table mass and packages the result. rec routes telemetry: ambient for
// one-shot calls, a worker shard inside the QPP sweep.
func solveSSQPPExactDP(ins *Instance, v0 int, alpha float64, rec obs.Rec, mass []float64) (*SSQPPResult, error) {
	sp := rec.Start("placement.ssqpp_exact")
	defer sp.End()
	f, obj, err := treedp.SolveSSQPP(rec, ins.M.Row(v0), ins.Cap, ins.loads, mass)
	if err != nil {
		return nil, fmt.Errorf("placement: exact SSQPP for v0=%d: %w", v0, err)
	}
	if math.IsNaN(obj) {
		return nil, fmt.Errorf("placement: exact SSQPP for v0=%d: NaN objective", v0)
	}
	pl := NewPlacement(f)
	return &SSQPPResult{
		Placement: pl,
		V0:        v0,
		Alpha:     alpha,
		Delay:     ins.MaxDelayFrom(v0, pl),
		LPBound:   obj,
	}, nil
}
