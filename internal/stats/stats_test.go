package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.N() != 0 || a.StdDev() != 0 {
		t.Error("zero accumulator should report zeros")
	}
	for _, x := range []float64{2, 4, 6} {
		a.Add(x)
	}
	if a.N() != 3 || !almostEq(a.Mean(), 4) || !almostEq(a.Sum(), 12) {
		t.Errorf("accumulator: n=%d mean=%v sum=%v", a.N(), a.Mean(), a.Sum())
	}
	wantVar := 8.0 / 3 // population variance of {2, 4, 6}
	if !almostEq(a.Variance(), wantVar) {
		t.Errorf("variance = %v, want %v", a.Variance(), wantVar)
	}
}

func TestAccumulatorMatchesTwoPassStats(t *testing.T) {
	// Property: the online accumulator agrees with a two-pass computation
	// over the retained samples.
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, v := range raw {
			x := float64(v)
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(raw))
		var variance float64
		if len(raw) > 1 {
			for _, v := range raw {
				variance += (float64(v) - mean) * (float64(v) - mean)
			}
			variance /= float64(len(raw))
		}
		return math.Abs(a.Mean()-mean) < 1e-6 &&
			math.Abs(a.Variance()-variance) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Error("empty ratio should be 0")
	}
	r.Observe(true)
	r.Observe(false)
	r.Observe(true)
	r.Observe(true)
	if !almostEq(r.Value(), 0.75) || r.Hits != 3 || r.Total != 4 {
		t.Errorf("ratio = %v (%d/%d)", r.Value(), r.Hits, r.Total)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if h == nil {
		t.Fatal("valid histogram rejected")
	}
	for _, x := range []float64{0.5, 1, 3, 5, 9.9, -1, 100} {
		h.Add(x)
	}
	if h.N() != 7 {
		t.Errorf("N = %d", h.N())
	}
	// -1 clamps to bucket 0; 100 clamps to last bucket.
	if h.buckets[0] != 3 { // 0.5, 1, -1
		t.Errorf("bucket0 = %d", h.buckets[0])
	}
	if h.buckets[4] != 2 { // 9.9, 100
		t.Errorf("bucket4 = %d", h.buckets[4])
	}
	if len(h.buckets) != 5 {
		t.Errorf("NumBuckets = %d", len(h.buckets))
	}
}

func TestHistogramValidation(t *testing.T) {
	if NewHistogram(5, 5, 3) != nil {
		t.Error("hi==lo accepted")
	}
	if NewHistogram(0, 10, 0) != nil {
		t.Error("zero buckets accepted")
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(3)
	if s := h.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestHistogramPercentile(t *testing.T) {
	// 10000 uniform samples over [0, 100) with 1-unit buckets: percentile
	// estimates must land within one bucket width of the exact quantile.
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 10000; i++ {
		h.Add(float64(i%100) + 0.5)
	}
	for _, p := range []float64{1, 25, 50, 75, 95, 99} {
		got := h.Percentile(p)
		if diff := got - p; diff < -1 || diff > 1 {
			t.Errorf("Percentile(%v) = %v, want within 1 of %v", p, got, p)
		}
	}
	if got := h.Percentile(0); got < 0 || got > 1 {
		t.Errorf("Percentile(0) = %v, want in first bucket", got)
	}
	if got := h.Percentile(100); got < 99 || got > 100 {
		t.Errorf("Percentile(100) = %v, want in last bucket", got)
	}
	var empty *Histogram = NewHistogram(0, 1, 4)
	if got := empty.Percentile(50); got != 0 {
		t.Errorf("empty Percentile = %v, want 0", got)
	}
}

func TestHistogramPercentileMatchesExactAtScale(t *testing.T) {
	// Cross-check the bucketed estimator against the exact percentile
	// (closest ranks of the sorted samples, linearly interpolated) on a
	// skewed sample set.
	xs := make([]float64, 0, 5000)
	h := NewHistogram(0, 2000, 4000) // 0.5-wide buckets
	for i := 0; i < 5000; i++ {
		v := float64(i*i%1999) + 0.25
		xs = append(xs, v)
		h.Add(v)
	}
	sort.Float64s(xs)
	for _, p := range []float64{50, 95, 99} {
		rank := p / 100 * float64(len(xs)-1)
		lo := int(rank)
		exact := xs[lo] + (rank-float64(lo))*(xs[lo+1]-xs[lo])
		got := h.Percentile(p)
		if diff := got - exact; diff < -1 || diff > 1 {
			t.Errorf("P%v: histogram %v vs exact %v (diff %v)", p, got, exact, diff)
		}
	}
}

func TestHistogramMergeOrderInsensitive(t *testing.T) {
	// Partition a sample stream three ways; merging the parts in any order
	// must reproduce the sequentially-filled histogram exactly. This is the
	// property the parallel tick workers rely on.
	seqH := NewHistogram(0, 50, 25)
	parts := []*Histogram{
		NewHistogram(0, 50, 25),
		NewHistogram(0, 50, 25),
		NewHistogram(0, 50, 25),
	}
	for i := 0; i < 999; i++ {
		v := float64(i*7%53) - 1 // includes out-of-range values
		seqH.Add(v)
		parts[i%3].Add(v)
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		m := NewHistogram(0, 50, 25)
		for _, idx := range order {
			m.Merge(parts[idx])
		}
		if m.N() != seqH.N() {
			t.Fatalf("order %v: N = %d, want %d", order, m.N(), seqH.N())
		}
		for b := 0; b < len(seqH.buckets); b++ {
			if m.buckets[b] != seqH.buckets[b] {
				t.Fatalf("order %v: bucket %d = %d, want %d", order, b, m.buckets[b], seqH.buckets[b])
			}
		}
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched histograms did not panic")
		}
	}()
	a := NewHistogram(0, 10, 5)
	b := NewHistogram(0, 20, 5)
	b.Add(1)
	a.Merge(b)
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for i := 0; i < 7; i++ {
		h.Add(float64(i))
	}
	h.Reset()
	if h.N() != 0 {
		t.Fatalf("N after Reset = %d", h.N())
	}
	for b := 0; b < len(h.buckets); b++ {
		if h.buckets[b] != 0 {
			t.Fatalf("bucket %d nonzero after Reset", b)
		}
	}
	h.Add(2.5)
	if h.N() != 1 || h.buckets[1] != 1 {
		t.Fatal("histogram unusable after Reset")
	}
}
