package placement

import (
	"fmt"
	"sort"
	"strings"
)

// Audit produces a one-call health report for a placement: the paper's two
// headline quantities (average max-delay and capacity violation), the
// per-node load profile, the Lemma 3.1 relay factor, fault-tolerance
// numbers, and the set of hot nodes. It is what cmd/qpp prints and what
// operators would look at before adopting a placement.

// AuditReport summarizes a placement against its instance.
type AuditReport struct {
	AvgMaxDelay   float64
	AvgTotalDelay float64
	// WorstClientDelay is max_v Δ_f(v) with its argmax client.
	WorstClientDelay float64
	WorstClient      int
	// CapacityViolation is max_v load_f(v)/cap(v).
	CapacityViolation float64
	// HotNodes lists nodes over their capacity, worst first.
	HotNodes []HotNode
	// RelayFactor is the Lemma 3.1 detour factor (≤ 5) and its best relay.
	RelayFactor float64
	RelayNode   int
	// UsedNodes is the number of distinct nodes hosting elements.
	UsedNodes int
	// NodeResilience is the number of node crashes always survived, or
	// -1 when the hitting-set search fails (past 64 used nodes or its
	// budget).
	NodeResilience int
}

// HotNode is a node whose placed load exceeds its capacity.
type HotNode struct {
	Node   int
	Load   float64
	Cap    float64
	Factor float64
}

// Audit evaluates the placement and assembles the report.
func (ins *Instance) Audit(p Placement) (*AuditReport, error) {
	if err := ins.Validate(p); err != nil {
		return nil, err
	}
	r := &AuditReport{
		AvgMaxDelay:    ins.AvgMaxDelay(p),
		AvgTotalDelay:  ins.AvgTotalDelay(p),
		NodeResilience: -1,
	}
	for v := 0; v < ins.M.N(); v++ {
		if d := ins.MaxDelayFrom(v, p); d > r.WorstClientDelay {
			r.WorstClientDelay = d
			r.WorstClient = v
		}
	}
	r.CapacityViolation = ins.CapacityViolation(p)
	loads := ins.NodeLoads(p)
	used := map[int]bool{}
	for u := 0; u < p.Len(); u++ {
		used[p.Node(u)] = true
	}
	r.UsedNodes = len(used)
	for v, l := range loads {
		if l > ins.Cap[v]*(1+capTol)+capTol {
			factor := l / ins.Cap[v]
			if ins.Cap[v] == 0 {
				factor = -1 // infinite; sorted last-first below by load
			}
			r.HotNodes = append(r.HotNodes, HotNode{Node: v, Load: l, Cap: ins.Cap[v], Factor: factor})
		}
	}
	sort.Slice(r.HotNodes, func(a, b int) bool {
		ha, hb := r.HotNodes[a], r.HotNodes[b]
		if (ha.Factor < 0) != (hb.Factor < 0) {
			return ha.Factor < 0 // infinite violations first
		}
		return ha.Factor > hb.Factor
	})
	r.RelayFactor, r.RelayNode = RelayFactor(ins, p)
	if res, err := ins.PlacementResilience(p); err == nil {
		r.NodeResilience = res
	}
	return r, nil
}

// String renders the report as aligned text.
func (r *AuditReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "avg max-delay Δ:     %.6g\n", r.AvgMaxDelay)
	fmt.Fprintf(&b, "avg total-delay Γ:   %.6g\n", r.AvgTotalDelay)
	fmt.Fprintf(&b, "worst client:        v%d (Δ = %.6g)\n", r.WorstClient, r.WorstClientDelay)
	fmt.Fprintf(&b, "capacity violation:  %.4g×\n", r.CapacityViolation)
	fmt.Fprintf(&b, "relay factor (≤5):   %.4g via v%d\n", r.RelayFactor, r.RelayNode)
	fmt.Fprintf(&b, "used nodes:          %d\n", r.UsedNodes)
	if r.NodeResilience >= 0 {
		fmt.Fprintf(&b, "node resilience:     %d crash(es)\n", r.NodeResilience)
	}
	if len(r.HotNodes) > 0 {
		b.WriteString("over-capacity nodes:\n")
		for _, h := range r.HotNodes {
			if h.Factor < 0 {
				fmt.Fprintf(&b, "  v%-4d load %.4g / cap 0 (zero-capacity node)\n", h.Node, h.Load)
			} else {
				fmt.Fprintf(&b, "  v%-4d load %.4g / cap %.4g (%.3g×)\n", h.Node, h.Load, h.Cap, h.Factor)
			}
		}
	}
	return b.String()
}
