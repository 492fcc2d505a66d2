package quorum

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseCases holds specs with the system each names, covering every
// construction in Grammar, and specs Parse must reject (want nil).
var parseCases = []struct {
	spec string
	want func() *System
}{
	{"grid:2", func() *System { return Grid(2) }},
	{"grid:3", func() *System { return Grid(3) }},
	{"majority:5:3", func() *System { return Majority(5, 3) }},
	{"majority:5:4", func() *System { return Majority(5, 4) }},
	{"fpp:2", func() *System { return FPP(2) }},
	{"fpp:4", func() *System { return FPP(4) }},
	{"star:4", func() *System { return Star(4) }},
	{"wheel:5", func() *System { return Wheel(5) }},
	{"recmajority:1", func() *System { return RecursiveMajority(1) }},
	{"recmajority:2", func() *System { return RecursiveMajority(2) }},
	{"cwall:2,2", func() *System { return CrumblingWalls([]int{2, 2}) }},
	{"cwall:2,3,2", func() *System { return CrumblingWalls([]int{2, 3, 2}) }},
	{"cwall:3", func() *System { return CrumblingWalls([]int{3}) }},

	{"", nil},
	{"grid", nil},
	{"grid:", nil},
	{"grid:0", nil},
	{"grid:x", nil},
	{"grid:3:4", nil},
	{"majority:5", nil},
	{"majority:5:2", nil},
	{"majority:3:4", nil},
	{"majority:x:3", nil},
	{"fpp", nil},
	{"fpp:6", nil},
	{"fpp:1", nil},
	{"star:1", nil},
	{"wheel:2", nil},
	{"recmajority:0", nil},
	{"cwall:0,2", nil},
	{"cwall:x", nil},
	{"cwall:", nil},
	{"cwall:2:2", nil},
	{"bogus:1", nil},
	{"unknown:1", nil},
}

func TestParse(t *testing.T) {
	for _, tc := range parseCases {
		got, err := Parse(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("Parse(%q) accepted: %s", tc.spec, got.Name())
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		want := tc.want()
		if got.Name() != want.Name() || got.Universe() != want.Universe() || !reflect.DeepEqual(got.Quorums(), want.Quorums()) {
			t.Errorf("Parse(%q) = %s (universe %d, %d quorums), want %s (universe %d, %d quorums)",
				tc.spec, got.Name(), got.Universe(), got.NumQuorums(), want.Name(), want.Universe(), want.NumQuorums())
		}
	}
}

// FuzzParse checks that no spec makes Parse panic and that a spec it
// accepts builds a system. Numbers above 3 and long specs are skipped:
// majority, recmajority and cwall enumerate every quorum, and
// recmajority:4 alone has 14 million.
func FuzzParse(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 20 {
			t.Skip()
		}
		for _, num := range strings.FieldsFunc(spec, func(r rune) bool { return r < '0' || r > '9' }) {
			if x, err := strconv.Atoi(num); err != nil || x > 3 {
				t.Skip()
			}
		}
		sys, err := Parse(spec)
		if err == nil && sys == nil {
			t.Fatalf("Parse(%q) returned neither a system nor an error", spec)
		}
	})
}
