package quorum

import (
	"reflect"
	"runtime"
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

// TestParseBudget: a spec whose system passes maxBuildWork is an error
// that names the budget, returned before any quorum is allocated; the
// largest systems the programs and tests build stay under it.
func TestParseBudget(t *testing.T) {
	for _, spec := range []string{"recmajority:4", "majority:30:16", "grid:56", "fpp:64", "star:100000", "wheel:30000", "cwall:1000000000", "cwall:9,9,9,9,9,9,9,9", "majority:9223372036854775807:9223372036854775000", "recmajority:9223372036854775807"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(spec)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "maxBuildWork") {
			t.Errorf("Parse(%q) = %v, want an error naming maxBuildWork", spec, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<16 {
			t.Errorf("Parse(%q) allocated %d bytes before rejecting it", spec, b)
		}
	}
	for _, spec := range []string{"majority:15:8", "majority:16:9", "recmajority:3", "grid:8", "fpp:7"} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
}

// FuzzParse checks that no spec makes Parse panic and that a spec it
// accepts builds a system. maxBuildWork keeps every accepted spec small
// enough to build.
func FuzzParse(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sys, err := Parse(spec)
		if err == nil && sys == nil {
			t.Fatalf("Parse(%q) returned neither a system nor an error", spec)
		}
	})
}
