package quorum

import "fmt"

// RecursiveMajority returns the hierarchical (recursive) majority quorum
// system on 3^height elements: the universe is a complete ternary tree of
// groups; a quorum takes majorities of majorities down to the leaves. For
// height 1 this is Majority(3, 2); height 2 has 27 quorums of 4 elements on
// 9 leaves. Two quorums intersect because at every level their chosen
// 2-of-3 group sets overlap in at least one group, recursively.
func RecursiveMajority(height int) *System { return must(recursiveMajority(height)) }

func recursiveMajority(height int) (*System, error) {
	if height < 1 {
		return nil, fmt.Errorf("quorum: recursive majority needs height >= 1, got %d", height)
	}
	name := fmt.Sprintf("recmajority-h%d", height)
	// 3^h elements and Q(h) = 3·Q(h−1)² quorums of 2^h elements, Q(0) = 1;
	// the loop stops once the count saturates.
	n, m, size := 1, 1, 1
	for i := 0; i < height && m <= maxBuildWork; i++ {
		n, m, size = satMul(n, 3), satMul(3, satMul(m, m)), satMul(size, 2)
	}
	if err := checkBuild(name, n, m, satMul(m, size)); err != nil {
		return nil, err
	}
	return NewSystem(name, n, recMajQuorums(0, n, height))
}

// recMajQuorums enumerates the recursive-majority quorums of the block of
// size 3^level starting at offset start.
func recMajQuorums(start, blockSize, level int) [][]int {
	if level == 0 {
		return [][]int{{start}}
	}
	child := blockSize / 3
	subs := make([][][]int, 3)
	for i := 0; i < 3; i++ {
		subs[i] = recMajQuorums(start+i*child, child, level-1)
	}
	var out [][]int
	// Choose 2 of the 3 children and a quorum from each.
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	for _, pr := range pairs {
		for _, qa := range subs[pr[0]] {
			for _, qb := range subs[pr[1]] {
				q := make([]int, 0, len(qa)+len(qb))
				q = append(q, qa...)
				q = append(q, qb...)
				out = append(out, q)
			}
		}
	}
	return out
}
