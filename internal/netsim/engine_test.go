package netsim

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestPRNGJumpEqualsStepping: peek(k) is the k-th next draw and skip(k)
// leaves the stream where k draws leave it, for random states and every k
// up to 10⁴ — including counters that wrap around 2⁶⁴.
func TestPRNGJumpEqualsStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	states := []uint64{0, math.MaxUint64, math.MaxUint64 - prngGamma}
	for i := 0; i < 8; i++ {
		states = append(states, rng.Uint64())
	}
	const maxK = 10000
	for _, s0 := range states {
		start := prng{state: s0}
		step := start
		for k := 1; k <= maxK; k++ {
			want := step.next()
			if got := start.peek(k); got != want {
				t.Fatalf("state %#x: peek(%d) = %#x, draw %d = %#x", s0, k, got, k, want)
			}
			jump := start
			jump.skip(k)
			if jump != step {
				t.Fatalf("state %#x: skip(%d) left %#x, %d draws leave %#x", s0, k, jump.state, k, step.state)
			}
		}
		if unitFloat(start.peek(1)) != (&prng{state: s0}).Float64() {
			t.Fatalf("state %#x: unitFloat(peek(1)) differs from Float64", s0)
		}
	}
}

// TestGuideSamplerMatchesSearch: sampleQuorum returns bitwise the index
// sort.SearchFloat64s(cdf, u·acc) returns, clamped to the last quorum, on
// random CDFs with repeated values (zero-probability quorums first, inside
// and last, and skewed mass) and on a single quorum. It probes every
// bucket boundary u = b/len(guide) and its math.Nextafter neighbours, 0,
// the largest u below 1, and random draws.
func TestGuideSamplerMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cdfs [][]float64
	add := func(p []float64) {
		cdf := make([]float64, len(p))
		acc := 0.0
		for i, x := range p {
			acc += x
			cdf[i] = acc
		}
		cdfs = append(cdfs, cdf)
	}
	add([]float64{1})
	add([]float64{0, 0, 0, 1})
	add([]float64{1, 0, 0, 0})
	add([]float64{0, 0.25, 0, 0.125, 0, 0.5, 0.125, 0, 0})
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(300)
		p := make([]float64, n)
		sum := 0.0
		for j := range p {
			switch rng.Intn(4) {
			case 0: // zero-probability quorum: a repeated CDF value
			case 1:
				p[j] = rng.Float64() * 1e-9
			default:
				p[j] = rng.Float64()
			}
			if rng.Intn(20) == 0 {
				p[j] = 1e3 * rng.Float64() // skew
			}
			sum += p[j]
		}
		if sum == 0 {
			p[rng.Intn(n)] = 1
			sum = 1
		}
		if i%2 == 0 { // normalized like a Strategy, up to rounding
			for j := range p {
				p[j] /= sum
			}
		}
		add(p)
	}
	for ci, cdf := range cdfs {
		r := &simRun{cdf: cdf, acc: cdf[len(cdf)-1]}
		r.guide = newGuide(r.cdf, r.acc)
		g := len(r.guide)
		if g > len(cdf) || g&(g-1) != 0 {
			t.Fatalf("cdf %d: guide has %d entries for %d quorums, want a power of two ≤ quorums", ci, g, len(cdf))
		}
		want := func(u float64) int {
			return min(sort.SearchFloat64s(cdf, u*r.acc), len(cdf)-1)
		}
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, w := r.sampleQuorum(u), want(u); got != w {
				t.Fatalf("cdf %d (%d quorums): sampleQuorum(%v) = %d, want %d", ci, len(cdf), u, got, w)
			}
		}
		check(0)
		check(math.Nextafter(1, 0))
		for b := 0; b <= g; b++ {
			u := float64(b) / float64(g)
			check(u)
			check(math.Nextafter(u, 0))
			check(math.Nextafter(u, 1))
		}
		for i := 0; i < 2000; i++ {
			check(rng.Float64())
		}
	}
}

// TestNonFiniteSettingsRejected: NaN and ±Inf in a float setting are an
// error naming the field, not a run that silently drops or fails every
// access or reports NaN or infinite results.
func TestNonFiniteSettingsRejected(t *testing.T) {
	ins, p := buildInstance(t)
	type setting struct {
		field string
		run   func(x float64) error
	}
	settings := []setting{
		{"InterAccessTime", func(x float64) error {
			_, err := Run(Config{Instance: ins, Placement: p, AccessesPerClient: 2, InterAccessTime: x})
			return err
		}},
		{"NodeFailureProb", func(x float64) error {
			_, err := RunWithFailures(FailureConfig{Instance: ins, Placement: p, AccessesPerClient: 2, NodeFailureProb: x})
			return err
		}},
		{"RetryPenalty", func(x float64) error {
			_, err := RunWithFailures(FailureConfig{Instance: ins, Placement: p, AccessesPerClient: 2,
				NodeFailureProb: 0.5, MaxRetries: 1, RetryPenalty: x})
			return err
		}},
		{"ArrivalRate", func(x float64) error {
			_, err := RunQueueing(QueueConfig{Instance: ins, Placement: p, AccessesPerClient: 2, ArrivalRate: x})
			return err
		}},
		{"ServiceMean", func(x float64) error {
			_, err := RunQueueing(QueueConfig{Instance: ins, Placement: p, AccessesPerClient: 2, ArrivalRate: 1, ServiceMean: x})
			return err
		}},
	}
	for _, s := range settings {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			err := s.run(x)
			if err == nil {
				t.Errorf("%s = %v accepted", s.field, x)
				continue
			}
			if !strings.Contains(err.Error(), s.field) {
				t.Errorf("%s = %v: error %q does not name the field", s.field, x, err)
			}
		}
		if err := s.run(0.5); err != nil {
			t.Errorf("%s = 0.5 rejected: %v", s.field, err)
		}
	}
}
