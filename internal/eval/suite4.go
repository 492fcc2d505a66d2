package eval

import (
	"fmt"
	"math"
	"math/rand"

	"quorumplace/internal/agg"
	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
	"quorumplace/internal/treedp"
)

// --- E18: million-client scaling (aggregation + exact tree DP) ---------------------

// E18Scaling sweeps the two scaling dimensions the dense LP pipeline cannot
// reach: raw client count (collapsed by demand aggregation into per-node
// rates — the objective is linear in client weight, so the collapse is
// lossless) and network size (solved by the exact subset DP on trees,
// O(n·3^U), never materializing the n² metric). Every row is solved
// end-to-end; rows small enough for a dense metric cross-check also report
// the relative disagreement between the tree evaluation and the dense
// Instance evaluation of the same placement (identically zero up to float
// association), and on verify rows the aggregated objective is compared
// against the naive per-client reference evaluator. Wall-clock for the
// largest row is tracked by BenchmarkTreeDP and held under a ceiling in
// cmd/benchdiff's gate table; the table reports only machine-independent
// quantities.
func (s *Suite) E18Scaling() (*Table, error) {
	t := &Table{
		ID:       "E18",
		Title:    "Scaling: demand aggregation and the exact tree DP",
		PaperRef: "§3.3 SSQPP hardness (Thm 3.6) sidestepped by small universes; §6 rates (extension; not in paper)",
		Columns:  []string{"nodes", "clients", "demand nodes", "candidates", "avg max delay", "source delay", "vs dense", "vs per-client"},
	}
	type row struct{ nodes, clients int }
	rows := []row{{200, 5_000}, {500, 20_000}, {2_000, 100_000}}
	if !s.Quick {
		rows = append(rows, row{10_000, 300_000}, row{30_000, 1_000_000})
	}
	// The largest row is overridable (cmd/qppeval -scale-nodes/-scale-clients)
	// so the headline 10⁵-node/10⁶-client configuration can be run on demand
	// without making every full suite run pay for it.
	if s.ScaleNodes > 0 || s.ScaleClients > 0 {
		last := rows[len(rows)-1]
		if s.ScaleNodes > 0 {
			last.nodes = s.ScaleNodes
		}
		if s.ScaleClients > 0 {
			last.clients = s.ScaleClients
		}
		rows = append(rows, last)
	}
	sys := quorum.Majority(5, 3)
	strat := quorum.Uniform(sys.NumQuorums())
	for i, r := range rows {
		rng := rand.New(rand.NewSource(s.Seed + int64(i)))
		g := graph.RandomTree(r.nodes, 0.1, 1.0, rng)
		caps := make([]float64, r.nodes)
		for v := range caps {
			caps[v] = 0.7
		}
		clients := make([]agg.Client, r.clients)
		for c := range clients {
			clients[c] = agg.Client{Node: rng.Intn(r.nodes), Weight: float64(1 + rng.Intn(9))}
		}
		d := agg.NewDemand(r.nodes)
		if err := d.AddClients(clients); err != nil {
			return nil, err
		}
		rates := d.Rates()
		res, err := treedp.SolveQPP(g, caps, sys, strat, rates)
		if err != nil {
			return nil, fmt.Errorf("E18 %d nodes: %w", r.nodes, err)
		}
		demandNodes := 0
		for _, w := range rates {
			if w > 0 {
				demandNodes++
			}
		}
		vsDense, vsClients := "-", "-"
		if r.nodes <= 600 {
			m, err := graph.NewMetricFromGraph(g)
			if err != nil {
				return nil, err
			}
			ins, err := placement.NewInstance(m, caps, sys, strat)
			if err != nil {
				return nil, err
			}
			if err := ins.SetRates(rates); err != nil {
				return nil, err
			}
			pl := placement.NewPlacement(res.F)
			dense := ins.AvgMaxDelay(pl)
			vsDense = F(math.Abs(dense-res.AvgMaxDelay) / dense)
			ref, err := agg.PerClientAvgMaxDelay(ins, clients, pl)
			if err != nil {
				return nil, err
			}
			vsClients = F(math.Abs(ref-res.AvgMaxDelay) / ref)
		}
		t.AddRow(itoa(r.nodes), itoa(r.clients), itoa(demandNodes), itoa(len(res.Candidates)),
			F(res.AvgMaxDelay), F(res.SourceDelay), vsDense, vsClients)
	}
	t.Notes = append(t.Notes,
		"aggregation is lossless: the objective is linear in client weight, so raw clients collapse to per-node rates",
		"vs dense / vs per-client are relative disagreements on cross-checkable rows; '-' marks rows past the dense limit",
		"wall-clock for the headline configuration is held under the BenchmarkTreeDP ceiling of the perf gate's table (cmd/benchdiff)")
	return t, nil
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
