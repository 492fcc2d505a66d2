package quorum

import (
	"fmt"
	"sort"
)

// This file contains the named quorum-system constructions. The Grid and
// Majority systems are the ones the paper gives specialized placement
// algorithms for (§4); the rest are classical constructions referenced in
// the paper's introduction and used here to exercise the general QPP
// algorithms on structurally diverse inputs.

// maxBuildWork caps the systems the constructions build, so that Parse
// rejects a spec whose system would take too long or too much memory to
// build. A system's build work is (quorums + universe) × total quorum size.
// NewSystem's pairwise intersection check merges at most quorums × total
// elements, and since total ≤ quorums × universe, the cap also holds the
// total size to (maxBuildWork/2)^(2/3), about 1.6 million elements. At the
// cap a build takes about a second on a 2-vCPU x86 box.
const maxBuildWork = 1 << 31

// checkBuild rejects the system name when its build work passes
// maxBuildWork. The constructions call it with saturated counts before
// they allocate anything.
func checkBuild(name string, universe, quorums, total int) error {
	if satMul(satAdd(quorums, universe), total) > maxBuildWork {
		return fmt.Errorf("quorum: %s is too big to build: (quorums + universe) × total quorum size passes maxBuildWork = %d", name, maxBuildWork)
	}
	return nil
}

// satAdd and satMul add and multiply non-negative counts, saturating just
// past maxBuildWork so that no size arithmetic overflows.
func satAdd(a, b int) int {
	if a > maxBuildWork+1-b {
		return maxBuildWork + 1
	}
	return a + b
}

func satMul(a, b int) int {
	if b != 0 && a > (maxBuildWork+1)/b {
		return maxBuildWork + 1
	}
	return a * b
}

// Grid returns the k×k Grid quorum system [Cheung–Ammar–Ahamad; Kumar–
// Rabinovich–Sinha]: universe of k² elements laid out in a k×k matrix;
// quorum Q_{ij} is the union of row i and column j, so there are k² quorums
// of 2k-1 elements each (§4.1). Element (r,c) has index r*k + c; quorum
// Q_{ij} has index i*k + j.
func Grid(k int) *System { return must(grid(k)) }

func grid(k int) (*System, error) {
	if k < 1 {
		return nil, fmt.Errorf("quorum: grid needs k >= 1, got %d", k)
	}
	name := fmt.Sprintf("grid-%dx%d", k, k)
	n := satMul(k, k)
	if err := checkBuild(name, n, n, satMul(n, satAdd(k, k-1))); err != nil {
		return nil, err
	}
	quorums := make([][]int, 0, n)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			q := make([]int, 0, 2*k-1)
			for c := 0; c < k; c++ {
				q = append(q, i*k+c) // row i
			}
			for r := 0; r < k; r++ {
				if r != i {
					q = append(q, r*k+j) // column j minus the shared cell
				}
			}
			quorums = append(quorums, q)
		}
	}
	return NewSystem(name, n, quorums)
}

// Majority returns the threshold quorum system of §4.2: all subsets of a
// universe of size n with exactly t elements, for t ≥ ⌈(n+1)/2⌉ (so any two
// quorums intersect). The classical Majority system [Gifford; Thomas] is
// t = ⌊n/2⌋+1. The number of quorums is C(n,t); keep n small (≤ ~16).
func Majority(n, t int) *System { return must(majority(n, t)) }

func majority(n, t int) (*System, error) {
	if t <= n/2 {
		return nil, fmt.Errorf("quorum: majority threshold t=%d does not guarantee intersection for n=%d (need 2t > n)", t, n)
	}
	if t > n {
		return nil, fmt.Errorf("quorum: majority threshold t=%d exceeds universe %d", t, n)
	}
	name := fmt.Sprintf("majority-%d-of-%d", t, n)
	// C(n, t) = C(n, n−t), built up while it stays under the budget; past
	// it, or when n alone is, the count saturates.
	m := maxBuildWork + 1
	if n <= maxBuildWork {
		m = 1
		for i := 0; i < n-t && m <= maxBuildWork; i++ {
			m = m * (n - i) / (i + 1)
		}
	}
	if err := checkBuild(name, n, m, satMul(m, t)); err != nil {
		return nil, err
	}
	var quorums [][]int
	cur := make([]int, 0, t)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == t {
			quorums = append(quorums, append([]int(nil), cur...))
			return
		}
		// Prune: not enough elements left to complete the subset.
		need := t - len(cur)
		for v := start; v <= n-need; v++ {
			cur = append(cur, v)
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return NewSystem(name, n, quorums)
}

// Singleton returns the degenerate system with a single one-element quorum,
// the structure of Lin's delay-optimal (but maximally loaded) solution that
// §2 argues against. It is useful as a baseline and for edge-case tests.
func Singleton() *System {
	return must(NewSystem("singleton", 1, [][]int{{0}}))
}

// Star returns the "star" (centralized) system on n elements: element 0 is
// in every quorum and each quorum is {0, i}. Its load is concentrated on
// the center — the opposite extreme from Majority.
func Star(n int) *System { return must(star(n)) }

func star(n int) (*System, error) {
	if n < 2 {
		return nil, fmt.Errorf("quorum: star needs n >= 2, got %d", n)
	}
	name := fmt.Sprintf("star-%d", n)
	if err := checkBuild(name, n, n-1, satMul(n-1, 2)); err != nil {
		return nil, err
	}
	quorums := make([][]int, 0, n-1)
	for i := 1; i < n; i++ {
		quorums = append(quorums, []int{0, i})
	}
	return NewSystem(name, n, quorums)
}

// Wheel returns the wheel system [Marcus–Peleg style]: quorums are
// {hub, spoke_i} for each spoke plus the set of all spokes. The hub is
// element 0.
func Wheel(n int) *System { return must(wheel(n)) }

func wheel(n int) (*System, error) {
	if n < 3 {
		return nil, fmt.Errorf("quorum: wheel needs n >= 3, got %d", n)
	}
	name := fmt.Sprintf("wheel-%d", n)
	if err := checkBuild(name, n, n, satMul(n-1, 3)); err != nil {
		return nil, err
	}
	quorums := make([][]int, 0, n)
	spokes := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		quorums = append(quorums, []int{0, i})
		spokes = append(spokes, i)
	}
	quorums = append(quorums, spokes)
	return NewSystem(name, n, quorums)
}

// FPP returns the finite-projective-plane quorum system of prime-power
// order q = p^k — the construction underlying Maekawa's √N mutual-exclusion
// algorithm. The universe is the q²+q+1 points of PG(2,q) and the quorums
// are its q²+q+1 lines; every line has q+1 points and every pair of lines
// meets in exactly one point, so the system has optimal load Θ(1/√n).
// Lines over GF(q) use finite-field arithmetic (see gf.go), so composite
// prime powers like 4, 8, 9 work; orders with two distinct prime factors
// (6, 10, 12, ...) have no field and the construction panics.
//
// Point indexing: affine point (x, y) is x*q + y; the ideal point of slope m
// is q²+m; the vertical ideal point is q²+q.
func FPP(q int) *System { return must(fpp(q)) }

func fpp(q int) (*System, error) {
	name := fmt.Sprintf("fpp-%d", q)
	if q >= 2 { // newGF rejects the rest
		n := satAdd(satMul(q, q), satAdd(q, 1))
		if err := checkBuild(name, n, n, satMul(n, satAdd(q, 1))); err != nil {
			return nil, err
		}
	}
	f, err := newGF(q)
	if err != nil {
		return nil, fmt.Errorf("quorum: FPP order %d must be a prime power >= 2: %v", q, err)
	}
	n := q*q + q + 1
	var quorums [][]int
	// Lines y = m·x + b over GF(q), closed by the ideal point of slope m.
	for m := 0; m < q; m++ {
		for b := 0; b < q; b++ {
			line := make([]int, 0, q+1)
			for x := 0; x < q; x++ {
				y := f.add[f.mul[m*q+x]*q+b]
				line = append(line, x*q+y)
			}
			line = append(line, q*q+m)
			quorums = append(quorums, line)
		}
	}
	// Vertical lines x = c, closed by the vertical ideal point.
	for c := 0; c < q; c++ {
		line := make([]int, 0, q+1)
		for y := 0; y < q; y++ {
			line = append(line, c*q+y)
		}
		line = append(line, q*q+q)
		quorums = append(quorums, line)
	}
	// The line at infinity: all ideal points.
	inf := make([]int, 0, q+1)
	for m := 0; m <= q; m++ {
		inf = append(inf, q*q+m)
	}
	quorums = append(quorums, inf)
	return NewSystem(name, n, quorums)
}

// CrumblingWalls returns the Peleg–Wool crumbling-walls system for the given
// row widths: the universe is partitioned into rows (row i has widths[i]
// consecutive elements); a quorum is one full row i together with one
// representative element from every row below i. Two quorums with full rows
// i ≤ i' intersect because the first has a representative inside row i',
// which the second contains entirely (or i = i' and they share the row).
func CrumblingWalls(widths []int) *System { return must(crumblingWalls(widths)) }

func crumblingWalls(widths []int) (*System, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("quorum: crumbling walls needs at least one row")
	}
	name := fmt.Sprintf("cwall-%v", widths)
	// Row i's quorums number the product of the widths below it, and each
	// holds the row and one element of every row below.
	n, m, total, below := 0, 0, 0, 1
	for i := len(widths) - 1; i >= 0; i-- {
		w := widths[i]
		if w < 1 {
			return nil, fmt.Errorf("quorum: crumbling walls row %d has width %d", i, w)
		}
		n, m = satAdd(n, w), satAdd(m, below)
		total = satAdd(total, satMul(below, satAdd(w, len(widths)-1-i)))
		below = satMul(below, w)
	}
	if err := checkBuild(name, n, m, total); err != nil {
		return nil, err
	}
	offsets := make([]int, len(widths)+1)
	for i, w := range widths {
		offsets[i+1] = offsets[i] + w
	}
	var quorums [][]int
	// Enumerate: for each full row i, every combination of representatives
	// from the rows below.
	var rec func(i, row int, cur []int)
	rec = func(full, row int, cur []int) {
		if row == len(widths) {
			q := append([]int(nil), cur...)
			quorums = append(quorums, q)
			return
		}
		if row == full {
			for e := offsets[row]; e < offsets[row+1]; e++ {
				cur = append(cur, e)
			}
			rec(full, row+1, cur)
			return
		}
		if row < full {
			rec(full, row+1, cur)
			return
		}
		for e := offsets[row]; e < offsets[row+1]; e++ {
			rec(full, row+1, append(cur, e))
		}
	}
	for i := range widths {
		rec(i, 0, nil)
	}
	return NewSystem(name, n, quorums)
}

// Tree returns the Agrawal–El Abbadi tree quorum system on a complete
// binary tree of the given height (height 0 = single root). A quorum is
// obtained recursively: either the root together with a quorum of one
// subtree, or a quorum of each subtree. All distinct quorums are
// materialized, so keep the height small (≤ 3).
func Tree(height int) *System {
	if height < 0 {
		panic(fmt.Sprintf("quorum: tree height %d must be non-negative", height))
	}
	n := (1 << (height + 1)) - 1
	sets := treeQuorums(0, n)
	seen := map[string]bool{}
	var quorums [][]int
	for _, q := range sets {
		sort.Ints(q)
		key := fmt.Sprint(q)
		if !seen[key] {
			seen[key] = true
			quorums = append(quorums, q)
		}
	}
	return must(NewSystem(fmt.Sprintf("tree-h%d", height), n, quorums))
}

// treeQuorums enumerates the quorums of the subtree rooted at node root
// (heap indexing: children of i are 2i+1, 2i+2) within a tree of n nodes.
func treeQuorums(root, n int) [][]int {
	l, r := 2*root+1, 2*root+2
	if l >= n { // leaf
		return [][]int{{root}}
	}
	left := treeQuorums(l, n)
	right := treeQuorums(r, n)
	var out [][]int
	for _, q := range left {
		out = append(out, append([]int{root}, q...))
	}
	for _, q := range right {
		out = append(out, append([]int{root}, q...))
	}
	for _, ql := range left {
		for _, qr := range right {
			q := make([]int, 0, len(ql)+len(qr))
			q = append(q, ql...)
			q = append(q, qr...)
			out = append(out, q)
		}
	}
	return out
}

// WeightedMajority returns the system whose quorums are the minimal subsets
// with total weight strictly greater than half the total. Weights must be
// positive. Only minimal quorums are kept, so the system size stays
// manageable for small n.
func WeightedMajority(weights []int) *System {
	n := len(weights)
	if n == 0 {
		panic("quorum: weighted majority needs at least one element")
	}
	total := 0
	for i, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("quorum: weight %d is %d, must be positive", i, w))
		}
		total += w
	}
	var all [][]int
	for mask := 1; mask < 1<<n; mask++ {
		w := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += weights[i]
			}
		}
		if 2*w > total {
			var q []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					q = append(q, i)
				}
			}
			all = append(all, q)
		}
	}
	// Keep only minimal quorums.
	var quorums [][]int
	for i, q := range all {
		minimal := true
		for j, q2 := range all {
			if i != j && isSubset(q2, q) && len(q2) < len(q) {
				minimal = false
				break
			}
		}
		if minimal {
			quorums = append(quorums, q)
		}
	}
	return must(NewSystem(fmt.Sprintf("wmaj-%v", weights), n, quorums))
}

// isSubset reports whether sorted slice a ⊆ sorted slice b.
func isSubset(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}
