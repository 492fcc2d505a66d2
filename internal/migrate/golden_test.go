package migrate

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"quorumplace/internal/check"
	"quorumplace/internal/placement"
)

// TestSection5OutputGolden pins every output bit of the §5 solvers:
// placement.SolveTotalDelay, Solve, ParetoSweep, and a two-shard Planner
// run of warm solves under residual capacities (the daemon's pattern).
// Each case folds its placements, AvgDelay, Moved, LPBound and Warm flags
// (floats through math.Float64bits) into one FNV-1a digest; an error
// counts only as err != nil. The digests were recorded once and must
// never be re-recorded to make a change pass: a refactor of the GAP path
// is only correct if it reproduces them.
func TestSection5OutputGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, d *digest)
	}{
		{"totaldelay", goldenTotalDelay},
		{"solve", goldenSolve},
		{"pareto", goldenPareto},
		{"planner", goldenPlanner},
	}
	for _, c := range cases {
		d := &digest{h: fnv.New64a()}
		c.run(t, d)
		if got, want := d.sum(), section5Golden[c.name]; got != want {
			t.Errorf("%s: output digest %s, want %s", c.name, got, want)
		}
	}
}

// section5Golden holds the digests TestSection5OutputGolden compares.
var section5Golden = map[string]string{
	"totaldelay": "cb2daba2d04755ca",
	"solve":      "0b0609a64fee8aba",
	"pareto":     "be2ae4f62a5ac73a",
	"planner":    "6f914a89f1a9631b",
}

var goldenLambdas = []float64{0, 0.3, 1, 10}

// goldenInstance is check.Gen(seed), with client rates installed on every
// third seed that Gen left uniform, so the rate-weighted average distance
// is exercised well beyond Gen's own 25% share.
func goldenInstance(t *testing.T, seed int64) *check.Instance {
	t.Helper()
	ci := check.Gen(seed)
	if ci.Rates == nil && seed%3 == 0 {
		rng := rand.New(rand.NewSource(seed))
		rates := make([]float64, ci.M.N())
		for v := range rates {
			rates[v] = 0.2 + 1.6*rng.Float64()
		}
		if err := ci.SetRates(rates); err != nil {
			t.Fatal(err)
		}
	}
	return ci
}

// goldenOldPlacements returns the two fixed incumbents a migration starts
// from: the planted placement and a deterministic rotation of it.
func goldenOldPlacements(ci *check.Instance) []placement.Placement {
	n := ci.M.N()
	f := ci.Planted.Map()
	for u := range f {
		f[u] = (f[u] + 1 + u) % n
	}
	return []placement.Placement{ci.Planted, placement.NewPlacement(f)}
}

func goldenTotalDelay(t *testing.T, d *digest) {
	for seed := int64(1); seed <= 48; seed++ {
		res, err := placement.SolveTotalDelay(goldenInstance(t, seed).Instance)
		if d.err(err) {
			continue
		}
		d.placement(res.Placement)
		d.f64(res.AvgDelay)
		d.f64(res.LPBound)
	}
}

func goldenSolve(t *testing.T, d *digest) {
	for seed := int64(1); seed <= 16; seed++ {
		ci := goldenInstance(t, seed)
		for _, old := range goldenOldPlacements(ci) {
			for _, lambda := range goldenLambdas {
				plan, err := Solve(ci.Instance, old, lambda)
				if !d.err(err) {
					d.plan(plan)
				}
			}
		}
	}
}

func goldenPareto(t *testing.T, d *digest) {
	for seed := int64(1); seed <= 16; seed++ {
		ci := goldenInstance(t, seed)
		for _, old := range goldenOldPlacements(ci) {
			plans, err := ParetoSweep(ci.Instance, old, goldenLambdas)
			if d.err(err) {
				continue
			}
			d.int(len(plans))
			for _, p := range plans {
				d.plan(p)
			}
		}
	}
}

// goldenPlanner replays the daemon's shard cycle: the universe split u%2
// across two planners, one shard re-solved per tick under drifting client
// rates and a cycling λ, against residual capacities (full capacity minus
// the incumbent load of the other shard, floored at the shard's own
// incumbent load), with each tick's moves applied before the next.
func goldenPlanner(t *testing.T, d *digest) {
	warm := 0
	for seed := int64(1); seed <= 8; seed++ {
		ci := goldenInstance(t, seed)
		ins, cur := ci.Instance, ci.Planted.Map()
		n, nU := ins.M.N(), ins.Sys.Universe()
		if nU < 2 {
			continue
		}
		shards := [][]int{nil, nil}
		for u := 0; u < nU; u++ {
			shards[u%2] = append(shards[u%2], u)
		}
		planners := make([]*Planner, 2)
		for k, elems := range shards {
			pl, err := NewPlanner(ins, elems)
			if err != nil {
				t.Fatalf("seed %d shard %d: %v", seed, k, err)
			}
			planners[k] = pl
		}
		rng := rand.New(rand.NewSource(100 + seed))
		for tick := 0; tick < 12; tick++ {
			rates := make([]float64, n)
			for v := range rates {
				rates[v] = 0.5 + rng.Float64()
			}
			if err := ins.SetRates(rates); err != nil {
				t.Fatal(err)
			}
			k := tick % 2
			inShard := make([]bool, nU)
			for _, u := range shards[k] {
				inShard[u] = true
			}
			resid := append([]float64(nil), ins.Cap...)
			shardLoad := make([]float64, n)
			for u, v := range cur {
				if inShard[u] {
					shardLoad[v] += ins.Load(u)
				} else {
					resid[v] -= ins.Load(u)
				}
			}
			for v := range resid {
				resid[v] = math.Max(math.Max(resid[v], shardLoad[v]), 0)
			}
			sp, err := planners[k].Solve(placement.NewPlacement(cur), goldenLambdas[tick%4], resid)
			if d.err(err) {
				continue
			}
			d.int(len(sp.Nodes))
			for i, u := range sp.Elems {
				d.int(sp.Nodes[i])
				cur[u] = sp.Nodes[i]
			}
			d.f64(sp.LPBound)
			d.bool(sp.Warm)
			if sp.Warm {
				warm++
			}
		}
	}
	if warm < 5 {
		t.Fatalf("only %d warm planner solves; the case must exercise the warm path", warm)
	}
}

// digest folds outputs into an FNV-1a hash, floats by their bits.
type digest struct{ h hash.Hash64 }

func (d *digest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}

func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d *digest) int(x int)     { d.u64(uint64(int64(x))) }

func (d *digest) bool(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// err folds whether err is non-nil and reports it.
func (d *digest) err(err error) bool {
	d.bool(err != nil)
	return err != nil
}

func (d *digest) placement(p placement.Placement) {
	d.int(p.Len())
	for u := 0; u < p.Len(); u++ {
		d.int(p.Node(u))
	}
}

func (d *digest) plan(p *Plan) {
	d.placement(p.Placement)
	d.f64(p.AvgDelay)
	d.f64(p.Moved)
	d.f64(p.Lambda)
	d.f64(p.LPBound)
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
