package obs

import (
	"math"
	"sort"
)

// LogHist is a log-linear (HDR-style) histogram: each power-of-two octave
// [2^e, 2^(e+1)) is split into histSubBuckets equal-width sub-buckets, so a
// bucket's width is at most 1/histSubBuckets of its lower bound and any
// quantile read from bucket midpoints carries a relative error of at most
// 1/(2·histSubBuckets) ≲ 0.8%. Count, Sum, Min and Max are tracked exactly.
//
// Unlike the reservoir histogram it replaces, LogHist is mergeable: bucket
// counts are integers, so Merge is exact and — together with exact Min/Max
// and integer counts — independent of merge order (Sum is a float64 running
// total and is order-exact whenever the observed values are, e.g. integer
// latencies in nanoseconds; see TestShardMergeDifferential). That property
// is what lets per-worker collector shards record contention-free and fold
// into one collector after the fact with no loss.
//
// LogHist is not safe for concurrent use; each goroutine owns its own (via
// a Shard) or the owner serializes access (the Collector records under its
// mutex).
type LogHist struct {
	count    int64
	sum      float64
	min, max float64
	buckets  map[int]int64
}

// histSubBuckets is the number of linear sub-buckets per power-of-two
// octave. 64 keeps the worst-case quantile relative error below 1/128 while
// a typical run touches only a few dozen distinct buckets.
const histSubBuckets = 64

// nonposBucket keys values ≤ 0, which have no octave. It is far below any
// frexp-derived key (those span roughly ±70k for float64 exponents).
const nonposBucket = math.MinInt32

// NewLogHist returns an empty histogram.
func NewLogHist() *LogHist {
	return &LogHist{buckets: make(map[int]int64)}
}

// bucketKey maps a value to its bucket: the octave exponent in the high
// bits, the linear sub-bucket in the low log2(histSubBuckets) bits. Keys
// compare in value order, so sorting keys sorts buckets.
func bucketKey(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return nonposBucket
	}
	if math.IsInf(v, 1) {
		return math.MaxInt32
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	sub := int((2*frac - 1) * histSubBuckets)
	if sub >= histSubBuckets { // guard against rounding at frac→1
		sub = histSubBuckets - 1
	}
	return (exp-1)*histSubBuckets + sub
}

// bucketMid returns the midpoint of a bucket, the representative value used
// for quantiles. Decoding uses floor division so negative exponents round
// toward -∞, matching bucketKey's encoding.
func bucketMid(key int) float64 {
	if key == nonposBucket {
		return 0
	}
	if key == math.MaxInt32 {
		return math.Inf(1)
	}
	e2 := key >> 6 // floor(key/histSubBuckets); histSubBuckets = 64 = 1<<6
	sub := key & (histSubBuckets - 1)
	lo := math.Ldexp(1+float64(sub)/histSubBuckets, e2)
	hi := math.Ldexp(1+float64(sub+1)/histSubBuckets, e2)
	return (lo + hi) / 2
}

// Observe records one sample.
func (h *LogHist) Observe(v float64) {
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	h.buckets[bucketKey(v)]++
}

// Merge folds o into h bucket-wise. Bucket counts, Count, Min and Max merge
// exactly; Sum is a float64 add per histogram.
func (h *LogHist) Merge(o *LogHist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum += o.sum
	for k, n := range o.buckets {
		h.buckets[k] += n
	}
}

// Count returns the number of observed samples.
func (h *LogHist) Count() int64 { return h.count }

// Sum returns the running total of observed samples.
func (h *LogHist) Sum() float64 { return h.sum }

// Min returns the smallest observed sample (0 when empty).
func (h *LogHist) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observed sample (0 when empty).
func (h *LogHist) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the midpoint of the bucket
// holding the ⌈q·count⌉-th smallest sample, clamped to [Min, Max]. The
// result is within a relative 1/(2·histSubBuckets) of the true order
// statistic. Returns 0 on an empty histogram; q ≤ 0 yields Min and q ≥ 1
// yields Max exactly.
func (h *LogHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var cum int64
	for _, k := range keys {
		cum += h.buckets[k]
		if cum >= rank {
			if k == nonposBucket {
				// Values ≤ 0 share one bucket with no width guarantee;
				// report the exact minimum rather than a fabricated midpoint.
				return h.min
			}
			v := bucketMid(k)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// stats renders the histogram as its snapshot form.
func (h *LogHist) stats() HistStats {
	hs := HistStats{Count: h.count, Sum: h.sum, Min: h.Min(), Max: h.Max()}
	if h.count > 0 {
		hs.Mean = h.sum / float64(h.count)
	}
	hs.P50 = h.Quantile(0.50)
	hs.P95 = h.Quantile(0.95)
	hs.P99 = h.Quantile(0.99)
	hs.P999 = h.Quantile(0.999)
	return hs
}
