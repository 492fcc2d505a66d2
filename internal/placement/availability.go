package placement

import "quorumplace/internal/quorum"

// Availability of a *placed* quorum system under node crashes. Element-level
// availability (internal/quorum) assumes elements fail independently; once
// elements are placed, all elements hosted by a crashed node fail together,
// so a placement that clusters elements trades availability for delay. This
// is the fault-tolerance side of the load-dispersion motivation in §1 and
// §2 (the paper rejects Lin's single-node solution precisely because it
// "eliminates the advantages, such as load dispersion and fault tolerance,
// of any distributed quorum-based algorithm").

// placedSystem returns the quorum system pl induces on the nodes that host
// elements: node i is the i-th distinct host in element order, and each
// quorum becomes the set of nodes hosting its elements.
func (ins *Instance) placedSystem(pl Placement) (*quorum.System, error) {
	if err := ins.Validate(pl); err != nil {
		return nil, err
	}
	idx := map[int]int{}
	f := make([]int, pl.Len())
	for u := range f {
		v := pl.Node(u)
		if _, ok := idx[v]; !ok {
			idx[v] = len(idx)
		}
		f[u] = idx[v]
	}
	return ins.Sys.Image(ins.Sys.Name()+"-placed", len(idx), f), nil
}

// NodeFailureProbability returns the probability that no quorum of the
// placed system is fully alive when every *node* fails independently with
// probability p (all elements on a failed node become unavailable). The
// 2^|V'| enumeration of quorum.FailureProbability runs over only the nodes
// that actually host elements.
func (ins *Instance) NodeFailureProbability(pl Placement, p float64) (float64, error) {
	sys, err := ins.placedSystem(pl)
	if err != nil {
		return 0, err
	}
	return quorum.FailureProbability(sys, p)
}

// PlacementResilience returns the largest number f of node crashes the
// placed system always survives: for every set of f nodes, some quorum has
// all its elements on other nodes. It is quorum.Resilience of the placed
// system: (minimum node hitting set over placed quorums) − 1.
func (ins *Instance) PlacementResilience(pl Placement) (int, error) {
	sys, err := ins.placedSystem(pl)
	if err != nil {
		return 0, err
	}
	return quorum.Resilience(sys)
}
