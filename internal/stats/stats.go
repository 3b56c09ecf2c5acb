// Package stats provides the small statistical toolkit used by the
// CloudFog experiments: online accumulators, histograms, and time-series
// helpers.
package stats

import (
	"fmt"
	"math"
)

// Accumulator collects samples online and reports summary statistics
// without retaining every sample.
type Accumulator struct {
	n    int
	sum  float64
	sum2 float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.sum += x
	a.sum2 += x * x
}

// N returns the number of recorded samples.
func (a *Accumulator) N() int { return a.n }

// Sum returns the total of all samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the mean of all samples, or 0 if none were recorded.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Variance returns the population variance of all samples.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	m := a.Mean()
	v := a.sum2/float64(a.n) - m*m
	if v < 0 { // numerical noise
		return 0
	}
	return v
}

// StdDev returns the population standard deviation of all samples.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Ratio is a success counter reporting hits/total.
type Ratio struct {
	Hits  int
	Total int
}

// Observe records one trial with the given outcome.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Value returns hits/total, or 0 when nothing was observed.
func (r *Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Histogram counts samples into fixed-width buckets over [lo, hi). Samples
// outside the range land in the first or last bucket.
type Histogram struct {
	lo, hi  float64
	width   float64
	buckets []int
	n       int
}

// NewHistogram creates a histogram with nbuckets buckets over [lo, hi).
// It returns nil if the arguments do not describe a valid range.
func NewHistogram(lo, hi float64, nbuckets int) *Histogram {
	if nbuckets <= 0 || hi <= lo {
		return nil
	}
	return &Histogram{
		lo:      lo,
		hi:      hi,
		width:   (hi - lo) / float64(nbuckets),
		buckets: make([]int, nbuckets),
	}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	i := int((x - h.lo) / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.n++
}

// N returns the number of recorded samples.
func (h *Histogram) N() int { return h.n }

// Percentile returns the p-th percentile (p in [0, 100]) estimated from the
// bucket counts by linear interpolation inside the bucket containing the
// target rank. It returns 0 when no samples were recorded. Resolution is
// bounded by the bucket width; samples clamped into the edge buckets are
// attributed to those buckets' ranges.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	// Target rank in [0, n-1], matching Percentile's closest-ranks method.
	rank := p / 100 * float64(h.n-1)
	var below int
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		// Ranks below+0 .. below+b-1 fall inside bucket i.
		if rank < float64(below+b) {
			frac := (rank - float64(below) + 0.5) / float64(b)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return h.lo + (float64(i)+frac)*h.width
		}
		below += b
	}
	return h.hi
}

// Merge folds another histogram's counts into h. Both histograms must share
// the same shape (range and bucket count); Merge panics otherwise, since a
// silent mis-merge would corrupt every downstream quantile. Bucket counts
// are integers, so merging is exact and order-insensitive: per-worker
// scratch histograms merged in any order equal one sequentially-filled
// histogram.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.lo != o.lo || h.hi != o.hi || len(h.buckets) != len(o.buckets) {
		panic(fmt.Sprintf("stats: merging mismatched histograms: %v vs %v", h, o))
	}
	for i, b := range o.buckets {
		h.buckets[i] += b
	}
	h.n += o.n
}

// Reset clears all counts, keeping the bucket shape. It lets per-worker
// scratch histograms be reused across ticks without reallocation.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.n = 0
}

// String renders the histogram compactly for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("Histogram[%g,%g) n=%d buckets=%d", h.lo, h.hi, h.n, len(h.buckets))
}
