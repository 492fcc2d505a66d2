package placement_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"quorumplace/internal/check"
	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// TestSection3OutputGolden pins the outputs of the §3 solvers: SolveSSQPP,
// SolveQPP, SolveQPPParallel with two workers, and the exact tree-DP route
// (SolveSSQPPExact, and SolveQPP on an instance the DP gate takes). The
// inputs are check.Gen seeds, with client rates installed on every third
// seed that Gen left uniform, plus two shapes whose LPs are large: plan's
// random-geometric WAN under Grid(3) with unit capacities, and the broom.
//
// Each case folds its placements, delays and node loads (floats through
// math.Float64bits) into one FNV-1a digest; an error counts only as
// err != nil. The LP bounds (LPBound, RelayBound, MaxLPBound) are compared
// to their recorded values at 1e-9 relative instead: a different pivot
// path to the same optimum may move the last bits of an optimal value. A
// correct simplex reproduces every bound. A change of pivot rule may land
// an LP with several optimal vertices on another one and so move a
// placement; re-record a digest only for such a change, naming the outputs
// that moved (see section3Golden).
func TestSection3OutputGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, g *golden3)
	}{
		{"ssqpp", golden3SSQPP},
		{"qpp", golden3QPP},
		{"treedp", golden3TreeDP},
	}
	for _, c := range cases {
		g := &golden3{h: fnv.New64a()}
		c.run(t, g)
		want := section3Golden[c.name]
		if got := g.sum(); got != want.digest {
			t.Errorf("%s: output digest %s, want %s", c.name, got, want.digest)
		}
		if len(g.bounds) != len(want.bounds) {
			t.Errorf("%s: %d LP bounds, want %d; got %s", c.name, len(g.bounds), len(want.bounds), g.boundsLiteral())
			continue
		}
		for i, b := range g.bounds {
			if w := want.bounds[i]; math.Abs(b-w) > 1e-9*math.Abs(w) {
				t.Errorf("%s: LP bound %d = %v, want %v", c.name, i, b, w)
			}
		}
	}
}

// section3Golden holds what TestSection3OutputGolden compares: a digest of
// the bit-exact outputs and the LP bounds in the order the case met them.
// The digests were recorded with Devex pricing on tableaus of at least
// lp's 2^17-cell gate. With Dantzig pricing on every tableau the ssqpp and
// qpp digests read c5c3d5df8f148edc and 0b0b19c24ab5e195, with the same
// bounds: the LPs of several check.Gen seeds cross the gate, and Devex ends
// some of them on another optimal vertex, which moves the placements of SSQPP
// seeds 2, 10, 12, 17 and 22 (Δ_f(v0) unchanged) and QPP seeds 1, 2, 10
// and 22. The plan-shaped and broom outputs are the same under both rules.
var section3Golden = map[string]struct {
	digest string
	bounds []float64
}{
	"ssqpp": {"81b3b53239c5bf7f", []float64{
		1.296485227832385, 1.7307710332837694, 0.5161656011007554, 3.531909936179524,
		3.1417570518341638, 0.27788514198784964, 0.13958934057463088, 1.632456666039507,
		2.6086168691424576, 0.9999999999999998, 0.7081923400072235, 1,
		1.0120567895265653, 2, 1, 0.13303056827536042,
		2.7776800777951816, 0.6132770353139927, 0.22091430804643372, 6,
		3.2117052140026257, 1.0000000000000002, 0.8111132464234784, 0.007928947485291188,
		0.2207549025374517, 1.36,
	}},
	"qpp": {"73d4aefa227359af", []float64{
		2.1978714184621992, 1.6683356359549362, 3.5124077672043867, 2.730771033283768,
		1.1734028119751807, 1, 4.484570193872202, 4.168210777521904,
		5.09675074289871, 7.438447892026568, 0.8428534447470647, 0.2963129279295992,
		0.5990409809027286, 0.5336173744757934, 3.5982466654123475, 3.2438118792905675,
		2.149460728725589, 3.0453140985154232, 2.8999999999999995, 1.9999999999999996,
		2.9163846800144473, 1.3025436427284869, 2.042692958364095, 1,
		0.5341831555337421, 1.0120567895265653, 1.6621792862788205, 2,
		1.2555347702824382, 1, 0.6938682215783705, 0.5762291114986744,
		2.9881601422076933, 3.677776123797289, 0.8766257879623376, 0.6132770353139927,
		0.9885570228905534, 0.6062228656620361, 3.090909090909091, 7,
		4.155631716066754, 4.267206991758131, 2.9090909090909096, 2.0000000000000004,
		2.0284424837693367, 1.427894443670825, 0.8594033563800456, 1,
		0.4813488806485404, 0.25385731253556637, 4.08, 5.160000000000001,
	}},
	"treedp": {"96348c2734cb3936", nil},
}

// golden3Seeds is the number of check.Gen seeds each case sweeps.
const golden3Seeds = 24

// golden3Instance is check.Gen(seed), with client rates installed on every
// third seed that Gen left uniform.
func golden3Instance(t *testing.T, seed int64) *placement.Instance {
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
	return ci.Instance
}

// golden3Large returns the two shapes whose SSQPP LPs are large: plan's
// 14-node random-geometric WAN under Grid(3) with unit capacities and
// random client rates, and the broom Broom(5) holding one quorum of all 25
// elements at unit capacities (BenchmarkParallelQPP's instance).
func golden3Large(t *testing.T) []*placement.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	grid := quorum.Grid(3)
	plan, err := placement.NewInstance(mustMetric(t, graph.RandomGeometric(14, 0.4, rng)),
		uniformCaps(14, 1), grid, quorum.Uniform(grid.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, 14)
	for v := range rates {
		rates[v] = 0.5 + rng.Float64()
	}
	if err := plan.SetRates(rates); err != nil {
		t.Fatal(err)
	}
	all := make([]int, 25)
	for i := range all {
		all[i] = i
	}
	single, err := quorum.NewSystem("single", 25, [][]int{all})
	if err != nil {
		t.Fatal(err)
	}
	broom, err := placement.NewInstance(mustMetric(t, graph.Broom(5)), uniformCaps(25, 1), single, quorum.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	return []*placement.Instance{plan, broom}
}

func golden3SSQPP(t *testing.T, g *golden3) {
	ssqpp := func(ins *placement.Instance, v0 int) {
		res, err := placement.SolveSSQPP(ins, v0, 2)
		if g.err(err) {
			return
		}
		g.placement(ins, res.Placement)
		g.f64(res.Delay)
		g.bound(res.LPBound)
	}
	for seed := int64(1); seed <= golden3Seeds; seed++ {
		ins := golden3Instance(t, seed)
		ssqpp(ins, int(seed)%ins.M.N())
	}
	for _, ins := range golden3Large(t) {
		ssqpp(ins, 0)
	}
}

// golden3QPP runs SolveQPP and SolveQPPParallel with two workers; the
// parallel result must equal the sequential one bit for bit.
func golden3QPP(t *testing.T, g *golden3) {
	qpp := func(name string, ins *placement.Instance) {
		res, err := placement.SolveQPP(ins, 2)
		par, parErr := placement.SolveQPPParallel(ins, 2, 2)
		if (err == nil) != (parErr == nil) {
			t.Fatalf("%s: sequential error %v, parallel error %v", name, err, parErr)
		}
		if g.err(err) {
			return
		}
		if par.BestV0 != res.BestV0 || par.AvgMaxDelay != res.AvgMaxDelay ||
			par.RelayBound != res.RelayBound || par.MaxLPBound != res.MaxLPBound ||
			!slices.Equal(par.Placement.Map(), res.Placement.Map()) {
			t.Fatalf("%s: parallel result %+v differs from sequential %+v", name, par, res)
		}
		g.placement(ins, res.Placement)
		g.int(res.BestV0)
		g.bound(res.RelayBound)
		g.bound(res.MaxLPBound)
	}
	for seed := int64(1); seed <= golden3Seeds; seed++ {
		qpp(fmt.Sprintf("seed %d", seed), golden3Instance(t, seed))
	}
	for i, ins := range golden3Large(t) {
		qpp(fmt.Sprintf("large shape %d", i), ins)
	}
}

// golden3TreeDP pins the exact DP route: SolveSSQPPExact on the generated
// seeds, and SolveQPP on a 64-node instance with a five-element universe,
// which the exact-DP gate routes away from the LP. Neither touches the
// simplex, so the DP's bounds are pinned bit for bit.
func golden3TreeDP(t *testing.T, g *golden3) {
	for seed := int64(1); seed <= golden3Seeds; seed++ {
		ins := golden3Instance(t, seed)
		res, err := placement.SolveSSQPPExact(ins, int(seed)%ins.M.N(), 2)
		if g.err(err) {
			continue
		}
		g.placement(ins, res.Placement)
		g.f64(res.Delay)
		g.f64(res.LPBound)
	}
	rng := rand.New(rand.NewSource(3))
	maj := quorum.Majority(5, 3)
	ins, err := placement.NewInstance(mustMetric(t, graph.RandomGeometric(64, 0.3, rng)),
		uniformCaps(64, 1), maj, quorum.Uniform(maj.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := placement.SolveQPP(ins, 2)
	if g.err(err) {
		return
	}
	g.placement(ins, res.Placement)
	g.int(res.BestV0)
	g.f64(res.RelayBound)
	g.f64(res.MaxLPBound)
}

// golden3 folds bit-exact outputs into an FNV-1a hash, floats by their
// bits, and collects LP bounds for the tolerance comparison.
type golden3 struct {
	h      hash.Hash64
	bounds []float64
}

func (g *golden3) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	g.h.Write(b[:])
}

func (g *golden3) f64(x float64)   { g.u64(math.Float64bits(x)) }
func (g *golden3) int(x int)       { g.u64(uint64(int64(x))) }
func (g *golden3) bound(x float64) { g.bounds = append(g.bounds, x) }

// err folds whether err is non-nil and reports it.
func (g *golden3) err(err error) bool {
	if err != nil {
		g.u64(1)
		return true
	}
	g.u64(0)
	return false
}

// placement folds a placement, its average max-delay and its node loads.
func (g *golden3) placement(ins *placement.Instance, p placement.Placement) {
	g.int(p.Len())
	for u := 0; u < p.Len(); u++ {
		g.int(p.Node(u))
	}
	g.f64(ins.AvgMaxDelay(p))
	for _, l := range ins.NodeLoads(p) {
		g.f64(l)
	}
}

func (g *golden3) sum() string { return fmt.Sprintf("%016x", g.h.Sum64()) }

// boundsLiteral prints the collected bounds as a Go slice literal.
func (g *golden3) boundsLiteral() string {
	s := make([]string, len(g.bounds))
	for i, b := range g.bounds {
		s[i] = fmt.Sprint(b)
	}
	return "[]float64{" + strings.Join(s, ", ") + "}"
}
