package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the bucket count of a Histogram: one underflow bucket for
// values <= 0 plus one bucket per power of two up to int64 range.
const NumBuckets = 64

// Histogram is a lock-free log2 histogram for non-negative magnitudes
// (durations in ns, sizes in bytes). Bucket b >= 1 holds values v with
// 2^(b-1) <= v <= 2^b - 1; bucket 0 holds v <= 0. Observations are two
// atomic adds (bucket + sum); like the other metrics it is a no-op while
// telemetry is disabled.
type Histogram struct {
	name    string
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// BucketOf returns the bucket index recording value v: 0 for v <= 0,
// otherwise bits.Len64(v) (the position of v's highest set bit, 1-based).
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpperBound returns the largest value landing in bucket b:
// 0 for the underflow bucket, 2^b - 1 otherwise (MaxInt64 for the top
// bucket, whose range is truncated by the int64 domain).
func BucketUpperBound(b int) int64 {
	switch {
	case b <= 0:
		return 0
	case b >= 63:
		return math.MaxInt64
	default:
		return int64(1)<<b - 1
	}
}

// Observe records one value when telemetry is enabled.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.buckets[BucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// upper bound of the first bucket at which the cumulative count reaches
// q*Count. Returns 0 for an empty histogram. The estimate is exact to within
// the bucket's power-of-two resolution, which is all a wall-clock telemetry
// percentile needs.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < NumBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= target {
			return BucketUpperBound(b)
		}
	}
	return math.MaxInt64
}

// reset zeroes all cells (Registry.Reset).
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// HistSnapshot is the JSON-able point-in-time state of a histogram. Buckets
// maps the bucket's upper bound to its count, omitting empty buckets.
type HistSnapshot struct {
	Count int64           `json:"count"`
	Sum   int64           `json:"sum"`
	P50   int64           `json:"p50"`
	P99   int64           `json:"p99"`
	Max   int64           `json:"max_bucket_bound"`
	Bkts  map[int64]int64 `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Bkts:  map[int64]int64{},
	}
	for b := 0; b < NumBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			ub := BucketUpperBound(b)
			s.Bkts[ub] = n
			s.Max = ub
		}
	}
	s.P50 = h.Quantile(0.50)
	s.P99 = h.Quantile(0.99)
	return s
}
