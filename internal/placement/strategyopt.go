package placement

import (
	"fmt"

	"quorumplace/internal/lp"
	"quorumplace/internal/quorum"
)

// Strategy re-optimization: the paper fixes the access strategy p and
// optimizes the placement f; the natural companion knob (a §6-style
// extension) is to fix f and re-optimize p. Both the average max-delay
// objective and the per-node load constraints are linear in p, so the
// problem is an LP:
//
//	minimize   Avg_v Σ_Q p(Q) δ_f(v, Q)
//	subject to Σ_{Q : f(Q) ∋ v} p(Q)·[u ∈ Q, f(u) = v] ≤ cap(v)  ∀v
//	           Σ_Q p(Q) = 1,  p ≥ 0
//
// Alternating placement and strategy optimization (coordinate descent)
// never increases the objective; the E14 experiment measures what one
// round of strategy re-optimization buys on top of the Theorem 1.2
// placement.

// OptimizeStrategyForPlacement returns the access strategy minimizing the
// (rate-weighted) average max-delay of the fixed placement p, subject to
// every node's induced load staying within its capacity. It returns an
// error if no distribution satisfies the capacities (e.g. a colocated
// placement on a small node).
func OptimizeStrategyForPlacement(ins *Instance, p Placement) (quorum.Strategy, float64, error) {
	if err := ins.Validate(p); err != nil {
		return quorum.Strategy{}, 0, err
	}
	nQ := ins.Sys.NumQuorums()
	n := ins.M.N()

	// Cost of quorum q = rate-weighted average over clients of δ_f(v, Q).
	costs := make([]float64, nQ)
	for qi := 0; qi < nQ; qi++ {
		costs[qi] = ins.avgOverClients(func(v int) float64 {
			return ins.QuorumMaxDelay(v, qi, p)
		})
	}
	prob := lp.NewProblem()
	pv := make([]int, nQ)
	for qi := range pv {
		pv[qi] = prob.AddVar(costs[qi], fmt.Sprintf("p%d", qi))
	}
	terms := make([]lp.Term, nQ)
	for qi := range terms {
		terms[qi] = lp.Term{Var: pv[qi], Coef: 1}
	}
	prob.AddConstraint(terms, lp.EQ, 1)
	// Node load: choosing quorum Q puts one access on node v for each
	// element of Q placed on v... in the paper's load model, load_f(v) =
	// Σ_{u : f(u)=v} Σ_{Q ∋ u} p(Q), i.e. an element counts once per
	// quorum containing it.
	for v := 0; v < n; v++ {
		var t []lp.Term
		for qi := 0; qi < nQ; qi++ {
			count := 0.0
			for _, u := range ins.Sys.Quorum(qi) {
				if p.Node(u) == v {
					count++
				}
			}
			if count > 0 {
				t = append(t, lp.Term{Var: pv[qi], Coef: count})
			}
		}
		if len(t) > 0 {
			prob.AddConstraint(t, lp.LE, ins.Cap[v])
		}
	}
	sol, err := prob.Solve()
	if err != nil {
		return quorum.Strategy{}, 0, fmt.Errorf("placement: strategy optimization LP: %w", err)
	}
	probs := make([]float64, nQ)
	for qi := range probs {
		probs[qi] = sol.X[pv[qi]]
	}
	st, err := quorum.NewStrategy(probs)
	if err != nil {
		return quorum.Strategy{}, 0, fmt.Errorf("placement: strategy optimization returned invalid distribution: %w", err)
	}
	return st, sol.Objective, nil
}

// OptimizePerClientStrategies generalizes OptimizeStrategyForPlacement to
// the §6 per-client setting: each client v gets its own strategy p_v, the
// objective is the (rate-weighted) average of each client's expected
// max-delay, and the load constraints apply to the average strategy p̄
// (which is how §6 defines load for per-client strategies). The LP has
// |V|·|Q| variables; per-client freedom can only improve on the single
// shared strategy.
func OptimizePerClientStrategies(ins *Instance, p Placement) ([]quorum.Strategy, float64, error) {
	if err := ins.Validate(p); err != nil {
		return nil, 0, err
	}
	nQ := ins.Sys.NumQuorums()
	n := ins.M.N()
	prob := lp.NewProblem()
	vars := make([][]int, n)
	weights := make([]float64, n)
	wsum := 0.0
	for v := 0; v < n; v++ {
		weights[v] = 1
		if ins.Rates != nil {
			weights[v] = ins.Rates[v]
		}
		wsum += weights[v]
	}
	for v := 0; v < n; v++ {
		vars[v] = make([]int, nQ)
		for qi := 0; qi < nQ; qi++ {
			cost := weights[v] / wsum * ins.QuorumMaxDelay(v, qi, p)
			vars[v][qi] = prob.AddVar(cost, fmt.Sprintf("p_%d_%d", v, qi))
		}
		terms := make([]lp.Term, nQ)
		for qi := range terms {
			terms[qi] = lp.Term{Var: vars[v][qi], Coef: 1}
		}
		prob.AddConstraint(terms, lp.EQ, 1)
	}
	// Node load under the rate-weighted average strategy p̄:
	// load(v') = Σ_{u: f(u)=v'} Σ_{Q∋u} p̄(Q) with p̄(Q) = Σ_v w_v p_v(Q)/Σw.
	for node := 0; node < n; node++ {
		counts := make([]float64, nQ) // elements of Q placed on node
		any := false
		for qi := 0; qi < nQ; qi++ {
			for _, u := range ins.Sys.Quorum(qi) {
				if p.Node(u) == node {
					counts[qi]++
					any = true
				}
			}
		}
		if !any {
			continue
		}
		var terms []lp.Term
		for v := 0; v < n; v++ {
			for qi := 0; qi < nQ; qi++ {
				if counts[qi] > 0 {
					terms = append(terms, lp.Term{Var: vars[v][qi], Coef: counts[qi] * weights[v] / wsum})
				}
			}
		}
		prob.AddConstraint(terms, lp.LE, ins.Cap[node])
	}
	sol, err := prob.Solve()
	if err != nil {
		return nil, 0, fmt.Errorf("placement: per-client strategy LP: %w", err)
	}
	out := make([]quorum.Strategy, n)
	for v := 0; v < n; v++ {
		probs := make([]float64, nQ)
		for qi := 0; qi < nQ; qi++ {
			probs[qi] = sol.X[vars[v][qi]]
		}
		st, err := quorum.NewStrategy(probs)
		if err != nil {
			return nil, 0, fmt.Errorf("placement: client %d strategy invalid: %w", v, err)
		}
		out[v] = st
	}
	return out, sol.Objective, nil
}
