package placement

import (
	"fmt"
	"math"

	"quorumplace/internal/obs"
	"quorumplace/internal/quorum"
)

// This file implements the general Quorum Placement Problem solver of
// Theorem 1.2 via the reduction to the single-source problem (Lemma 3.1 and
// Theorem 3.3): since the identity of the special relay node v0 is unknown,
// the solver runs the SSQPP algorithm from every candidate source and keeps
// the placement with the best actual average max-delay. The returned
// placement satisfies
//
//	Avg_v Δ_f(v) ≤ 5α/(α-1) · Avg_v Δ_{f*}(v)
//
// with load_f(v) ≤ (α+1)·cap(v) at every node.

// QPPResult is the outcome of SolveQPP.
type QPPResult struct {
	Placement   Placement
	AvgMaxDelay float64 // Avg_v Δ_f(v) of the returned placement
	BestV0      int     // the source whose SSQPP solution won
	Alpha       float64

	// RelayBound is min over sources v0 of
	// Avg_v d(v,v0) + α/(α-1)·Z*(v0): the delay certificate Theorem 3.3
	// accounts the returned placement against.
	RelayBound float64

	// MaxLPBound is max over sources v0 of the LP lower bound Z*(v0).
	// Because the optimal placement f* is a feasible SSQPP solution for
	// *some* source (the Lemma 3.1 node), Z*(v0) ≤ Δ_{f*}(v0) holds for
	// each v0 individually; the evaluation harness combines these with
	// exact solutions on small instances.
	MaxLPBound float64
}

// SolveQPP runs the Theorem 1.2 algorithm with filtering parameter α > 1.
// It is solveQPP with one worker: one ssqppSolver sweeps every source,
// reusing the instance's LP skeletons and one workspace throughout.
func SolveQPP(ins *Instance, alpha float64) (*QPPResult, error) {
	sp := obs.Start("placement.qpp")
	defer sp.End()
	best, err := solveQPP(ins, alpha, 1, sp)
	if err != nil {
		return nil, err
	}
	obs.Gauge("placement.qpp_avg_max_delay", best.AvgMaxDelay)
	return best, nil
}

// RelayFactor measures the Lemma 3.1 ratio for a given placement: the
// average delay of the best relay-via-v0 strategy divided by the true
// average max-delay. The lemma proves this is at most 5 for every placement
// and strategy.
func RelayFactor(ins *Instance, p Placement) (factor float64, v0 int) {
	avg := ins.AvgMaxDelay(p)
	if avg == 0 {
		return 1, 0 // degenerate: everything at distance zero
	}
	bestV0, _ := ins.BestRelayNode(p)
	return ins.RelayDelay(bestV0, p) / avg, bestV0
}

// SolveQPPAveragedStrategies implements the §6 extension where each client
// v has its own access strategy p_v: it replaces the strategies with their
// (rate-weighted) average p̄ and runs SolveQPP, which §6 shows preserves the
// Theorem 1.2 guarantee. The per-client strategies must all cover the
// instance quorum system.
func SolveQPPAveragedStrategies(ins *Instance, perClient []quorum.Strategy, alpha float64) (*QPPResult, error) {
	avg, err := AverageStrategies(ins, perClient)
	if err != nil {
		return nil, err
	}
	avgIns, err := NewInstance(ins.M, ins.Cap, ins.Sys, avg)
	if err != nil {
		return nil, err
	}
	avgIns.Rates = ins.Rates
	return SolveQPP(avgIns, alpha)
}

// AverageStrategies returns the rate-weighted average of per-client access
// strategies, the p̄ of the §6 extension.
func AverageStrategies(ins *Instance, perClient []quorum.Strategy) (quorum.Strategy, error) {
	n := ins.M.N()
	if len(perClient) != n {
		return quorum.Strategy{}, fmt.Errorf("placement: %d client strategies for %d clients", len(perClient), n)
	}
	m := ins.Sys.NumQuorums()
	acc := make([]float64, m)
	wsum := 0.0
	for v, st := range perClient {
		if st.Len() != m {
			return quorum.Strategy{}, fmt.Errorf("placement: client %d strategy covers %d quorums, want %d", v, st.Len(), m)
		}
		w := 1.0
		if ins.Rates != nil {
			w = ins.Rates[v]
		}
		for q := 0; q < m; q++ {
			acc[q] += w * st.P(q)
		}
		wsum += w
	}
	if wsum <= 0 {
		return quorum.Strategy{}, fmt.Errorf("placement: client rates sum to zero")
	}
	for q := range acc {
		acc[q] /= wsum
	}
	return quorum.NewStrategy(acc)
}

// AvgMaxDelayPerClient evaluates the QPP objective when each client uses
// its own strategy: Avg_v Σ_Q p_v(Q) δ_f(v, Q).
func (ins *Instance) AvgMaxDelayPerClient(perClient []quorum.Strategy, p Placement) (float64, error) {
	if len(perClient) != ins.M.N() {
		return 0, fmt.Errorf("placement: %d client strategies for %d clients", len(perClient), ins.M.N())
	}
	for v, st := range perClient {
		if st.Len() != ins.Sys.NumQuorums() {
			return 0, fmt.Errorf("placement: client %d strategy covers %d quorums, want %d", v, st.Len(), ins.Sys.NumQuorums())
		}
	}
	val := ins.avgOverClients(func(v int) float64 {
		return ins.MaxDelayFromWithStrategy(v, perClient[v], p)
	})
	if math.IsNaN(val) {
		return 0, fmt.Errorf("placement: NaN delay")
	}
	return val, nil
}
