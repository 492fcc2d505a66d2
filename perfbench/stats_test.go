package main

import "testing"

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// TestTenBeyondRule pins the rule for reporting a tail: the percentile
// must leave at least ten samples above it.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {1000, 0.99, 10}, {999, 0.99, 9}, {20, 0.5, 10}, {1, 0.5, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		got := minSamples(c.q)
		if got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.want)
		}
		if beyond(got, c.q) < minBeyond || beyond(got-1, c.q) >= minBeyond {
			t.Errorf("minSamples(%v) = %d is not the smallest count with %d beyond", c.q, got, minBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestDigestIsBitExact(t *testing.T) {
	x, y := 0.1, 0.2
	a, b, c := newDigest(), newDigest(), newDigest()
	a.floats(x+y, 1)
	b.floats(x+y, 1)
	c.floats(0.3, 1) // 0.1+0.2 != 0.3 in binary64
	if a.String() != b.String() {
		t.Error("equal inputs gave different digests")
	}
	if a.String() == c.String() {
		t.Error("a one-ulp difference left the digest unchanged")
	}
}
