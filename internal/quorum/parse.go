package quorum

import (
	"fmt"
	"strconv"
	"strings"
)

// Grammar is the system-spec grammar Parse accepts, as the commands'
// help strings print it.
const Grammar = "grid:k | majority:n:t | fpp:q | star:n | wheel:n | recmajority:h | cwall:w1,w2,..."

// Parse builds the quorum system a command-line spec names (see Grammar):
// grid:3 is Grid(3), majority:5:3 is Majority(5, 3), cwall:2,3,2 is
// CrumblingWalls([]int{2, 3, 2}), and so on. A malformed spec, or one
// whose arguments break the construction's precondition, is an error.
func Parse(spec string) (*System, error) {
	name, arg, _ := strings.Cut(spec, ":")
	sep, arity := ":", 1
	switch name {
	case "grid", "fpp", "star", "wheel", "recmajority":
	case "majority":
		arity = 2
	case "cwall":
		sep, arity = ",", 0 // any number of rows
	default:
		return nil, fmt.Errorf("quorum: unknown system %q, want %s", spec, Grammar)
	}
	var a []int
	for _, f := range strings.Split(arg, sep) {
		x, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("quorum: system %q: bad argument %q, want %s", spec, f, Grammar)
		}
		a = append(a, x)
	}
	if arity > 0 && len(a) != arity {
		return nil, fmt.Errorf("quorum: system %q takes %d argument(s), want %s", spec, arity, Grammar)
	}
	switch name {
	case "grid":
		return grid(a[0])
	case "majority":
		return majority(a[0], a[1])
	case "fpp":
		return fpp(a[0])
	case "star":
		return star(a[0])
	case "wheel":
		return wheel(a[0])
	case "recmajority":
		return recursiveMajority(a[0])
	default:
		return crumblingWalls(a)
	}
}
