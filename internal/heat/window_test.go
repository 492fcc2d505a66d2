package heat

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sortedFold is the unwindowed EWMA fold the sketch ran before it kept a
// checkpoint: every epoch cell, sorted by index, folded from scratch on
// each read. It is the oracle for the windowed fold and is only meaningful
// on a sketch that has never sealed.
func sortedFold(t *testing.T, s *Sketch, pick func(*epochCell) []int64) []float64 {
	t.Helper()
	if s.ckpt.epochs > 0 {
		t.Fatal("oracle sketch has sealed epochs")
	}
	idx := make([]int64, 0, len(s.epochs))
	for e := range s.epochs {
		idx = append(idx, e)
	}
	slices.Sort(idx)
	if len(idx) == 0 {
		return nil
	}
	lambda := math.Pow(0.5, 1/s.halfLife)
	var rates []float64
	prev := idx[0]
	for _, e := range idx {
		if gap := e - prev; gap > 1 {
			decay := math.Pow(lambda, float64(gap-1))
			for i := range rates {
				rates[i] *= decay
			}
		}
		counts := pick(s.epochs[e])
		for len(rates) < len(counts) {
			rates = append(rates, 0)
		}
		for i, c := range counts {
			rates[i] = lambda*rates[i] + (1-lambda)*float64(c)
		}
		for i := len(counts); i < len(rates); i++ {
			rates[i] *= lambda
		}
		prev = e
	}
	return rates
}

func pickClients(c *epochCell) []int64 { return c.clients }
func pickNodes(c *epochCell) []int64   { return c.nodes }

// sameBits fails unless got and want have equal lengths and bitwise-equal
// entries.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rates, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v (must be bitwise equal)", what, i, got[i], want[i])
		}
	}
}

// TestWindowedFoldBitwise feeds identical writes to a sketch read at random
// points and to one never read, and checks every read against the sorted
// fold of the unread sketch. The streams mix in-order writes, gaps longer
// than the window, writes up to W epochs behind the newest epoch at the
// previous read, and MergeShifted run sketches at random shifts, over
// several half-lives. None of these writes is late, so every read must be
// bitwise the unwindowed fold.
func TestWindowedFoldBitwise(t *testing.T) {
	halfLives := []float64{0.3, 1, 2.5, 8}
	epochLens := []float64{1, 0.5, 2}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := Options{EpochLen: epochLens[seed%3], HalfLife: halfLives[seed%4]}
		got, ref := New(opt), New(opt)
		w := got.window
		nodes := make([]int, 3)
		write := func(e int64) {
			at := (float64(e) + 0.25 + 0.5*rng.Float64()) * opt.EpochLen
			client := rng.Intn(12)
			for j := range nodes {
				nodes[j] = rng.Intn(9)
			}
			got.Observe(at, client, nodes)
			ref.Observe(at, client, nodes)
		}
		var newest, readNewest int64 // newest epoch now and at the last read
		read := func() {
			sameBits(t, "client rate", got.ClientRates(), sortedFold(t, ref, pickClients))
			sameBits(t, "node rate", got.NodeRates(), sortedFold(t, ref, pickNodes))
			if got.Late() != 0 {
				t.Fatalf("seed %d: %d late accesses in a stream with none", seed, got.Late())
			}
			readNewest = newest
		}
		// lo is the oldest epoch a write may use and stay exact.
		lo := func() int64 { return max(0, readNewest-w) }
		write(0)
		for step := 0; step < 500; step++ {
			switch r := rng.Float64(); {
			case r < 0.04: // a gap, often longer than the window
				newest += 2 + rng.Int63n(3*w)
				write(newest)
			case r < 0.10: // a run sketch merged at a random exact shift
				run := New(opt)
				span := 1 + rng.Int63n(2*w)
				for i := 0; i < 1+rng.Intn(20); i++ {
					run.Observe((float64(rng.Int63n(span))+0.5)*opt.EpochLen, rng.Intn(12), []int{rng.Intn(9)})
				}
				runMax, _ := run.MaxEpoch()
				shift := lo() + rng.Int63n(newest+2-lo())
				if err := got.MergeShifted(run, shift); err != nil {
					t.Fatal(err)
				}
				if err := ref.MergeShifted(run, shift); err != nil {
					t.Fatal(err)
				}
				newest = max(newest, shift+runMax)
			case r < 0.22:
				read()
			case r < 0.26: // exactly W epochs behind the newest at the last read
				write(lo())
			case r < 0.45: // anywhere in the exact range
				write(lo() + rng.Int63n(newest+1-lo()))
			default: // in order
				if rng.Intn(3) == 0 {
					newest++
				}
				write(newest)
			}
		}
		read()
	}
}

// TestLateWriteIntoCachedEpoch writes into the epoch Observe has cached
// after a read sealed it: the write must take the late path, not the
// cached cell.
func TestLateWriteIntoCachedEpoch(t *testing.T) {
	s, ref := New(Options{}), New(Options{})
	for _, sk := range []*Sketch{s, ref} {
		sk.Observe(100.5, 1, []int{2})
		sk.Observe(0.5, 0, []int{1}) // caches epoch 0
	}
	want := sortedFold(t, ref, pickClients)
	sameBits(t, "client rate", s.ClientRates(), want) // seals epoch 0
	s.Observe(0.5, 0, []int{1})
	if s.Late() != 1 {
		t.Fatalf("Late = %d after a write into the sealed cached epoch, want 1", s.Late())
	}
	sameBits(t, "client rate after the late write", s.ClientRates(), want)
	if got := s.ClientTotals(); got[0] != 2 {
		t.Fatalf("client 0 total %d, want 2: a late access still counts", got[0])
	}
}

// TestWindowBoundsCells pins the memory bound: after 10⁴ dense epochs and a
// read, exactly the W+1 window epochs stay raw, the read scratch shrinks
// with them, and Epochs and MaxEpoch still count the sealed ones.
func TestWindowBoundsCells(t *testing.T) {
	s := New(Options{})
	const epochs = 10000
	for e := 0; e < epochs; e++ {
		s.Observe(float64(e)+0.5, e%5, []int{e % 7})
	}
	s.ClientRates()
	if got, want := len(s.epochs), int(s.window)+1; got != want {
		t.Fatalf("%d raw cells after a read, want W+1 = %d", got, want)
	}
	if got := cap(s.keys); got > 2*(int(s.window)+1) {
		t.Fatalf("read scratch kept capacity %d after the window shrank", got)
	}
	if s.window != 64 {
		t.Fatalf("default window %d epochs, want ⌈8·8⌉ = 64", s.window)
	}
	if got := s.Epochs(); got != epochs {
		t.Fatalf("Epochs = %d, want %d", got, epochs)
	}
	if max, ok := s.MaxEpoch(); !ok || max != epochs-1 {
		t.Fatalf("MaxEpoch = %d,%v; want %d,true", max, ok, epochs-1)
	}
}

// TestWindowAndEpoch pins the two rules the daemon's /observe validation
// reads from the sketch: W = ⌈8·HalfLife⌉ (default half-life 8, clamped at
// 2⁶² so a huge half-life never seals), and the epoch of a time, which
// Observe records exactly when Epoch reports it observable.
func TestWindowAndEpoch(t *testing.T) {
	for _, c := range []struct {
		hl   float64
		want int64
	}{{0, 64}, {1, 8}, {2.5, 20}, {1e300, 1 << 62}} {
		if got := New(Options{HalfLife: c.hl}).Window(); got != c.want {
			t.Fatalf("half-life %v: window %d, want %d", c.hl, got, c.want)
		}
	}
	s := New(Options{EpochLen: 2})
	for _, c := range []struct {
		at   float64
		want int64
		ok   bool
	}{
		{0, 0, true}, {3.5, 1, true}, {0x1p63, 1 << 62, true},
		{-0.5, 0, false}, {math.NaN(), 0, false}, {math.Inf(1), 0, false}, {0x1p64, 0, false},
	} {
		before := s.Accesses()
		s.Observe(c.at, 0, nil)
		recorded := s.Accesses() > before
		if got, ok := s.Epoch(c.at); got != c.want || ok != c.ok || recorded != c.ok {
			t.Fatalf("at %v: Epoch = %d,%v and recorded %v; want %d,%v", c.at, got, ok, recorded, c.want, c.ok)
		}
	}
}

// TestLateWriteRule pins what a write into a sealed epoch does: it counts
// in every exact total and in Late, and is left out of the rates.
func TestLateWriteRule(t *testing.T) {
	s, ref := New(Options{HalfLife: 1}), New(Options{HalfLife: 1}) // W = 8
	for _, sk := range []*Sketch{s, ref} {
		sk.Observe(0.5, 0, []int{0})
		sk.Observe(20.5, 1, []int{1})
	}
	s.ClientRates() // seals epoch 0 and every epoch below 12
	s.Observe(3.5, 2, []int{2, 2})
	ref.Observe(3.5, 2, []int{2, 2})

	if s.Late() != 1 || ref.Late() != 0 {
		t.Fatalf("Late = %d (read sketch), %d (unread), want 1, 0", s.Late(), ref.Late())
	}
	if s.Accesses() != 3 || s.Messages() != 4 {
		t.Fatalf("accesses %d messages %d, want 3, 4", s.Accesses(), s.Messages())
	}
	if !reflect.DeepEqual(s.TopClients(0), ref.TopClients(0)) || !reflect.DeepEqual(s.TopNodes(0), ref.TopNodes(0)) {
		t.Fatal("top views differ from the unread sketch's exact ones")
	}
	sd, _ := s.Drift(nil)
	rd, _ := ref.Drift(nil)
	if !reflect.DeepEqual(sd, rd) {
		t.Fatalf("cumulative drift %+v differs from the unread sketch's %+v", sd, rd)
	}
	if rates := s.ClientRates(); len(rates) != 2 {
		t.Fatalf("late client 2 reached the rates: %v", rates)
	}
	if rates := s.NodeRates(); len(rates) != 2 {
		t.Fatalf("late node 2 reached the rates: %v", rates)
	}
	if got := s.Epochs(); got != 2 {
		t.Fatalf("Epochs = %d, want 2: a late write opens no epoch", got)
	}
}

// TestMergeShiftedSealedRules: a source with sealed epochs is refused, and
// a source cell that lands in a sealed destination epoch is late there.
func TestMergeShiftedSealedRules(t *testing.T) {
	src := New(Options{HalfLife: 1})
	src.Observe(0.5, 0, nil)
	src.Observe(20.5, 0, nil)
	src.ClientRates()
	if err := New(Options{HalfLife: 1}).MergeShifted(src, 0); err == nil {
		t.Fatal("merged a source with sealed epochs")
	}

	dst := New(Options{HalfLife: 1})
	dst.Observe(20.5, 0, []int{0})
	dst.ClientRates() // seals everything below epoch 12
	before := dst.ClientRates()
	run := New(Options{HalfLife: 1})
	run.Observe(0.5, 1, []int{1}) // lands in sealed epoch 3
	run.Observe(0.7, 1, []int{1})
	run.Observe(9.5, 2, []int{2}) // lands in open epoch 12
	if err := dst.MergeShifted(run, 3); err != nil {
		t.Fatal(err)
	}
	if dst.Late() != 2 || dst.Accesses() != 4 {
		t.Fatalf("late %d accesses %d, want 2, 4", dst.Late(), dst.Accesses())
	}
	after := dst.ClientRates()
	if after[1] != 0 || after[0] != before[0] || after[2] == 0 {
		t.Fatalf("rates %v: want client 1 left out, client 0 unchanged, client 2 in", after)
	}
}

// TestEqualComparesSealedState: equal raw cells are not enough; the
// checkpoint, the seal point and Late must match too.
func TestEqualComparesSealedState(t *testing.T) {
	a, b := New(Options{HalfLife: 1}), New(Options{HalfLife: 1})
	for _, sk := range []*Sketch{a, b} {
		sk.Observe(0.5, 0, nil)
		sk.Observe(30.5, 1, nil)
	}
	a.ClientRates()
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("a sealed sketch equals an unsealed one")
	}
	b.ClientRates()
	if !a.Equal(b) {
		t.Fatal("sketches sealed at the same read differ")
	}
	a.Observe(1.5, 0, nil)
	b.Observe(1.5, 0, nil)
	if !a.Equal(b) {
		t.Fatal("identical late writes broke Equal")
	}
	a.Observe(1.5, 0, nil)
	b.Observe(29.5, 0, nil)
	if a.Equal(b) {
		t.Fatal("a late access equals an open-epoch one")
	}
}
