package quorum

import (
	"fmt"
	"math"
)

// Read/write quorum systems (bicoteries): separate read and write quorum
// families where every read quorum intersects every write quorum (and
// writes intersect writes, so the latest write is always visible). Gifford's
// weighted voting — reference [8] of the paper — is the classical instance:
// read threshold r and write threshold w with r + w > n and 2w > n.
//
// Placement treats a read/write system through its access mix: with a
// fraction ρ of reads, the client samples a read quorum with probability ρ
// and a write quorum otherwise. Combine flattens that into an ordinary
// (System, Strategy) pair, after which every placement algorithm in this
// library applies unchanged.

// RWSystem is a read/write quorum system over a shared universe.
type RWSystem struct {
	name     string
	universe int
	reads    [][]int
	writes   [][]int
}

// NewRWSystem validates and builds a read/write system: every read quorum
// must intersect every write quorum, and write quorums must pairwise
// intersect. Read quorums need not intersect each other.
func NewRWSystem(name string, universe int, reads, writes [][]int) (*RWSystem, error) {
	if universe <= 0 {
		return nil, fmt.Errorf("quorum: universe size %d must be positive", universe)
	}
	if len(reads) == 0 || len(writes) == 0 {
		return nil, fmt.Errorf("quorum: rw system %q needs at least one read and one write quorum", name)
	}
	// Writes must pairwise intersect: reuse the single-family validator.
	wsys, err := NewSystem(name+"-writes", universe, writes)
	if err != nil {
		return nil, err
	}
	rw := &RWSystem{name: name, universe: universe, writes: wsys.quorums}
	// Reads need not pairwise intersect; validate shape only.
	cleanReads, err := normalizeQuorums(name+"-reads", universe, reads)
	if err != nil {
		return nil, err
	}
	rw.reads = cleanReads
	// Cross intersection: every read meets every write.
	for i, r := range rw.reads {
		for j, w := range rw.writes {
			if !sortedIntersect(r, w) {
				return nil, fmt.Errorf("quorum: read quorum %d and write quorum %d of %q do not intersect", i, j, name)
			}
		}
	}
	return rw, nil
}

// normalizeQuorums validates element ranges and duplicates and returns
// sorted copies, without requiring pairwise intersection.
func normalizeQuorums(name string, universe int, quorums [][]int) ([][]int, error) {
	out := make([][]int, len(quorums))
	for i, q := range quorums {
		if len(q) == 0 {
			return nil, fmt.Errorf("quorum: quorum %d of %q is empty", i, name)
		}
		c := append([]int(nil), q...)
		insertionSortInts(c)
		for j, u := range c {
			if u < 0 || u >= universe {
				return nil, fmt.Errorf("quorum: quorum %d of %q contains element %d outside universe [0,%d)", i, name, u, universe)
			}
			if j > 0 && c[j-1] == u {
				return nil, fmt.Errorf("quorum: quorum %d of %q contains duplicate element %d", i, name, u)
			}
		}
		out[i] = c
	}
	return out, nil
}

func insertionSortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// Universe returns the number of logical elements.
func (rw *RWSystem) Universe() int { return rw.universe }

// NumReadQuorums returns the number of read quorums.
func (rw *RWSystem) NumReadQuorums() int { return len(rw.reads) }

// NumWriteQuorums returns the number of write quorums.
func (rw *RWSystem) NumWriteQuorums() int { return len(rw.writes) }

// ReadQuorum returns the i-th read quorum (owned by the system).
func (rw *RWSystem) ReadQuorum(i int) []int { return rw.reads[i] }

// WriteQuorum returns the i-th write quorum (owned by the system).
func (rw *RWSystem) WriteQuorum(i int) []int { return rw.writes[i] }

// GiffordVoting returns the read/write threshold system on n unweighted
// elements with read threshold r and write threshold w: read quorums are
// all r-subsets, write quorums all w-subsets. Requires r + w > n (reads see
// the latest write) and 2w > n (writes are serialized).
func GiffordVoting(n, r, w int) *RWSystem {
	if r < 1 || w < 1 || r > n || w > n {
		panic(fmt.Sprintf("quorum: bad thresholds r=%d w=%d for n=%d", r, w, n))
	}
	if r+w <= n {
		panic(fmt.Sprintf("quorum: r+w = %d must exceed n = %d", r+w, n))
	}
	if 2*w <= n {
		panic(fmt.Sprintf("quorum: 2w = %d must exceed n = %d", 2*w, n))
	}
	reads := combinations(n, r)
	writes := combinations(n, w)
	rw, err := NewRWSystem(fmt.Sprintf("gifford-r%d-w%d-of-%d", r, w, n), n, reads, writes)
	if err != nil {
		panic(err)
	}
	return rw
}

// combinations enumerates all size-k subsets of {0..n-1}.
func combinations(n, k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := start; v <= n-(k-len(cur)); v++ {
			cur = append(cur, v)
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// Combine flattens the read/write system into an ordinary quorum system and
// strategy for a workload with read fraction readFrac ∈ [0, 1]: the
// combined quorum list is reads ++ writes, with uniform probability within
// each family scaled by the mix. The combined family is pairwise
// intersecting (reads×writes and writes×writes by construction) except
// possibly read×read — callers placing a combined system should note that
// read/read intersection is NOT required by bicoterie semantics, so the
// returned System is built without that check and carries it as documented
// behavior.
func (rw *RWSystem) Combine(readFrac float64) (*System, Strategy, error) {
	if readFrac < 0 || readFrac > 1 || math.IsNaN(readFrac) {
		return nil, Strategy{}, fmt.Errorf("quorum: read fraction %v outside [0,1]", readFrac)
	}
	quorums := make([][]int, 0, len(rw.reads)+len(rw.writes))
	for _, q := range rw.reads {
		quorums = append(quorums, append([]int(nil), q...))
	}
	for _, q := range rw.writes {
		quorums = append(quorums, append([]int(nil), q...))
	}
	sys := &System{
		name:     rw.name + "-combined",
		universe: rw.universe,
		quorums:  quorums,
	}
	probs := make([]float64, len(quorums))
	for i := range rw.reads {
		probs[i] = readFrac / float64(len(rw.reads))
	}
	for j := range rw.writes {
		probs[len(rw.reads)+j] = (1 - readFrac) / float64(len(rw.writes))
	}
	// Degenerate mixes put zero mass on one family; renormalization is
	// already exact because each family's masses sum to its fraction.
	st, err := NewStrategy(probs)
	if err != nil {
		return nil, Strategy{}, err
	}
	return sys, st, nil
}
