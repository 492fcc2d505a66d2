package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of samples (0 < q ≤ 1): the
// smallest sample with at least a fraction q of all samples at or below it.
// It sorts samples in place and returns 0 for an empty slice.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), q)-1]
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly above the nearest-rank
// q-quantile of n samples. A reported tail percentile needs at least
// minBeyond of them, or it is a single sample's value, not a tail.
func beyond(n int, q float64) int { return n - rank(n, q) }

const minBeyond = 10

// minSamples is the smallest sample count whose q-quantile has minBeyond
// samples beyond it.
func minSamples(q float64) int {
	n := minBeyond + 1
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// digest accumulates a determinism fingerprint over exact bit patterns:
// two runs print the same digest only when every folded value is
// bitwise identical.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(b []byte) { d.h.Write(b) }

func (d *digest) ints(xs ...int) {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	d.add(b)
}

func (d *digest) int64s(xs []int64) {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	d.add(b)
}

func (d *digest) floats(xs ...float64) {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	d.add(b)
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
