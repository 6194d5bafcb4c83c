package obs

import (
	"math"
	"math/bits"
)

// HDR is a log-linear ("HDR-style") histogram over non-negative int64
// samples, built for latency values in microseconds. Values below 2^8 are
// recorded exactly; above that, every power-of-two range [2^k, 2^(k+1)) is
// split into 2^7 equal-width sub-buckets, so the quantization error of any
// reported quantile is bounded by one part in 2^7 (< 1% relative error)
// while the whole dynamic range of int64 still fits in a few thousand
// buckets.
//
// Counts grow lazily to the highest observed bucket, so an HDR that only
// ever sees sub-millisecond values stays a few KB. Merge adds counts
// element-wise, which makes it exactly associative and commutative — merging
// per-cell histograms in any order yields identical quantiles.
//
// HDR is not goroutine-safe; owners (Metrics, SyncHDR) serialize access.
type HDR struct {
	counts []int64
	n      int64
	sum    int64
	min    int64 // valid only when n > 0
	max    int64
}

// HDR bucket geometry.
const (
	hdrSubBits  = 7                // sub-buckets per power of two: 128
	hdrUnitBits = hdrSubBits + 1   // values < 2^8 = 256 are exact
	hdrUnit     = 1 << hdrUnitBits // first log-linear bucket index
	hdrSub      = 1 << hdrSubBits  // sub-bucket count per tier
	hdrBuckets  = hdrUnit + (63-hdrUnitBits)*hdrSub
)

// hdrIndex maps a sample to its bucket. Negative samples clamp to 0.
func hdrIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < hdrUnit {
		return int(u)
	}
	k := bits.Len64(u) - 1 // position of the top bit, hdrUnitBits..62
	sub := int(u >> uint(k-hdrSubBits))
	return hdrUnit + (k-hdrUnitBits)*hdrSub + sub - hdrSub
}

// hdrLow returns the smallest value that lands in bucket i.
func hdrLow(i int) int64 {
	if i < hdrUnit {
		return int64(i)
	}
	tier := (i - hdrUnit) / hdrSub
	off := (i - hdrUnit) % hdrSub
	k := hdrUnitBits + tier
	return int64(hdrSub+off) << uint(k-hdrSubBits)
}

// hdrMid returns the midpoint of bucket i, the value reported for quantiles
// that land in it.
func hdrMid(i int) int64 {
	if i < hdrUnit {
		return int64(i) // exact region: the bucket is one value wide
	}
	low := hdrLow(i)
	tier := (i - hdrUnit) / hdrSub
	width := int64(1) << uint(tier+1) // 2^(k-hdrSubBits)
	return low + width/2
}

// NewHDR returns an empty histogram.
func NewHDR() *HDR { return &HDR{} }

// Observe adds one sample. Negative samples clamp to 0.
func (h *HDR) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := hdrIndex(v)
	if i >= len(h.counts) {
		grown := make([]int64, i+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[i]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// N returns the sample count.
func (h *HDR) N() int64 { return h.n }

// Sum returns the sum of all samples.
func (h *HDR) Sum() int64 { return h.sum }

// Min returns the smallest sample (0 when empty).
func (h *HDR) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *HDR) Max() int64 { return h.max }

// Mean returns the sample mean (0 when empty).
func (h *HDR) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an estimate of the p-quantile (0 ≤ p ≤ 1) with at most
// ~1% relative error: the midpoint of the bucket holding the ceil(p·n)-th
// smallest sample, clamped to the observed [Min, Max]. Quantile(0) is Min,
// Quantile(1) is Max, and an empty histogram reports 0.
func (h *HDR) Quantile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	target := int64(math.Ceil(p * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := hdrMid(i)
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

// CountAtOrBelow returns how many samples were at most v — up to bucket
// quantization: every sample in v's own bucket counts, so the result can
// overshoot by at most the bucket width (< 1% relative). It is the
// goodput primitive: requests answered within an SLO bound are
// CountAtOrBelow(slo) of the latency histogram.
func (h *HDR) CountAtOrBelow(v int64) int64 {
	if h.n == 0 {
		return 0
	}
	if v >= h.max {
		return h.n
	}
	i := hdrIndex(v)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	var cum int64
	for j := 0; j <= i; j++ {
		cum += h.counts[j]
	}
	return cum
}

// Merge adds o's samples into h. Element-wise count addition makes the
// operation associative and commutative: merging any permutation of the same
// histograms yields identical state.
func (h *HDR) Merge(o *HDR) {
	if o == nil || o.n == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]int64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Clone returns an independent copy.
func (h *HDR) Clone() *HDR {
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	return &c
}

// LatencySummary is the fixed set of percentile statistics exported for one
// latency distribution, in microseconds.
type LatencySummary struct {
	N      int64   `json:"n"`
	MeanUs float64 `json:"mean_us"`
	P50Us  int64   `json:"p50_us"`
	P90Us  int64   `json:"p90_us"`
	P95Us  int64   `json:"p95_us"`
	P99Us  int64   `json:"p99_us"`
	P999Us int64   `json:"p999_us"`
	MaxUs  int64   `json:"max_us"`
}

// Summary extracts the standard percentile set.
func (h *HDR) Summary() LatencySummary {
	return LatencySummary{
		N:      h.n,
		MeanUs: math.Round(h.Mean()*10) / 10,
		P50Us:  h.Quantile(0.50),
		P90Us:  h.Quantile(0.90),
		P95Us:  h.Quantile(0.95),
		P99Us:  h.Quantile(0.99),
		P999Us: h.Quantile(0.999),
		MaxUs:  h.Max(),
	}
}
