package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("same-seed streams diverged at %d: %v vs %v", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical samples of 100", same)
	}
}

func TestSplitIndependentAndDeterministic(t *testing.T) {
	a := New(7)
	c1 := a.Split()
	c2 := a.Split()
	if c1.Float64() == c2.Float64() {
		t.Error("successive Split children produced identical first samples")
	}
	// Reconstruct: the same Split sequence from the same seed must yield
	// the same child streams.
	b := New(7)
	d1 := b.Split()
	d2 := b.Split()
	e1 := New(7).Split()
	_ = d2
	if got, want := d1, e1; got.Float64() != want.Float64() {
		t.Error("Split is not deterministic across identically-seeded parents")
	}
}

// TestSplitSiblingsUncorrelated bounds the sample correlation between two
// sibling Split streams. The parallel tick workers each draw from their own
// shard stream, and determinism plus statistical validity both rest on the
// siblings behaving as independent generators.
func TestSplitSiblingsUncorrelated(t *testing.T) {
	parent := New(123)
	a := parent.Split()
	b := parent.Split()
	const n = 20000
	var sumA, sumB, sumAA, sumBB, sumAB float64
	for i := 0; i < n; i++ {
		x, y := a.Float64(), b.Float64()
		sumA += x
		sumB += y
		sumAA += x * x
		sumBB += y * y
		sumAB += x * y
	}
	meanA, meanB := sumA/n, sumB/n
	cov := sumAB/n - meanA*meanB
	varA := sumAA/n - meanA*meanA
	varB := sumBB/n - meanB*meanB
	corr := cov / math.Sqrt(varA*varB)
	// For truly independent uniforms the sample correlation is
	// ~Normal(0, 1/sqrt(n)) ≈ 0.007; 0.05 is a 7-sigma bound.
	if math.Abs(corr) > 0.05 {
		t.Fatalf("sibling Split streams correlate: r=%v over %d samples", corr, n)
	}
}

// TestSplitNamedSiblingsUncorrelated applies the same bound to two named
// child streams, which subsystems (workload vs. network vs. churn) rely on
// for cross-subsystem independence from one master seed.
func TestSplitNamedSiblingsUncorrelated(t *testing.T) {
	parent := New(123)
	a := parent.SplitNamed("workload")
	b := parent.SplitNamed("network")
	const n = 20000
	var sumA, sumB, sumAA, sumBB, sumAB float64
	for i := 0; i < n; i++ {
		x, y := a.Float64(), b.Float64()
		sumA += x
		sumB += y
		sumAA += x * x
		sumBB += y * y
		sumAB += x * y
	}
	meanA, meanB := sumA/n, sumB/n
	cov := sumAB/n - meanA*meanB
	varA := sumAA/n - meanA*meanA
	varB := sumBB/n - meanB*meanB
	corr := cov / math.Sqrt(varA*varB)
	if math.Abs(corr) > 0.05 {
		t.Fatalf("named sibling streams correlate: r=%v over %d samples", corr, n)
	}
}

// TestSplitNamedOrderIndependent documents the splitting-order contract:
// SplitNamed is keyed only by (parent seed, name), so the order in which
// named children are derived — or how many Split children were taken in
// between — cannot change a named child's stream. Parallel shard setup
// depends on this: workers may derive their streams in any order.
func TestSplitNamedOrderIndependent(t *testing.T) {
	a := New(77)
	ax := a.SplitNamed("x")
	_ = a.Split()
	ay := a.SplitNamed("y")

	b := New(77)
	by := b.SplitNamed("y")
	bx := b.SplitNamed("x")

	for i := 0; i < 50; i++ {
		if got, want := bx.Float64(), ax.Float64(); got != want {
			t.Fatalf("SplitNamed(\"x\") depends on derivation order: %v != %v", got, want)
		}
		if got, want := by.Float64(), ay.Float64(); got != want {
			t.Fatalf("SplitNamed(\"y\") depends on derivation order: %v != %v", got, want)
		}
	}
}

// TestSplitOrderContract documents the Split contract: the k-th Split child
// of a given seed is a fixed stream, regardless of draws taken from the
// parent in between.
func TestSplitOrderContract(t *testing.T) {
	a := New(5)
	a1, a2 := a.Split(), a.Split()

	b := New(5)
	b1 := b.Split()
	for i := 0; i < 100; i++ {
		b.Float64() // parent draws must not shift the split sequence
	}
	b2 := b.Split()

	for i := 0; i < 50; i++ {
		if got, want := b1.Float64(), a1.Float64(); got != want {
			t.Fatalf("first Split child not a pure function of (seed, index): %v != %v", got, want)
		}
		if got, want := b2.Float64(), a2.Float64(); got != want {
			t.Fatalf("second Split child shifted by parent draws: %v != %v", got, want)
		}
	}
}

func TestSplitNamedStable(t *testing.T) {
	a := New(9).SplitNamed("workload")
	b := New(9).SplitNamed("workload")
	c := New(9).SplitNamed("network")
	av, bv, cv := a.Float64(), b.Float64(), c.Float64()
	if av != bv {
		t.Errorf("same-name children differ: %v vs %v", av, bv)
	}
	if av == cv {
		t.Errorf("different-name children coincide: %v", av)
	}
}

func TestSplitNamedDoesNotPerturbParent(t *testing.T) {
	a := New(11)
	b := New(11)
	_ = a.SplitNamed("x")
	if av, bv := a.Float64(), b.Float64(); av != bv {
		t.Errorf("SplitNamed perturbed the parent stream: %v vs %v", av, bv)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform(10,20) = %v out of range", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(4)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bool(0.3) empirical rate %v", p)
	}
}

func TestParetoProperties(t *testing.T) {
	// Property: Pareto(xm, alpha) >= xm always.
	f := func(seed uint64, u8 uint8) bool {
		r := New(seed)
		xm := 1 + float64(u8%50)
		alpha := 0.5 + float64(u8%4)
		for i := 0; i < 50; i++ {
			if r.Pareto(xm, alpha) < xm {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParetoMean(t *testing.T) {
	// For alpha=2, xm=1: mean = alpha*xm/(alpha-1) = 2.
	r := New(6)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Pareto(1, 2)
	}
	mean := sum / n
	if mean < 1.8 || mean > 2.3 {
		t.Errorf("Pareto(1,2) empirical mean %v, want ~2", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 20, 100, 500} {
		r := New(uint64(lambda * 13))
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.2 {
			t.Errorf("Poisson(%v) empirical mean %v", lambda, mean)
		}
	}
}

func TestPoissonEdge(t *testing.T) {
	r := New(8)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-3); got != 0 {
		t.Errorf("Poisson(-3) = %d", got)
	}
}

func TestZipfRangeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := New(seed)
		for i := 0; i < 30; i++ {
			v := r.Zipf(n, 1.5)
			if v < 1 || v > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfSkew(t *testing.T) {
	// Rank 1 must be the most frequent outcome.
	r := New(10)
	counts := make([]int, 11)
	for i := 0; i < 50000; i++ {
		counts[r.Zipf(10, 1.5)]++
	}
	for k := 2; k <= 10; k++ {
		if counts[k] > counts[1] {
			t.Fatalf("Zipf rank %d (%d) more frequent than rank 1 (%d)", k, counts[k], counts[1])
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(12)
	var sum, sum2 float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal(10,3) empirical mean %v", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Errorf("Normal(10,3) empirical std %v", std)
	}
}

func TestWeightedValidation(t *testing.T) {
	if w := NewWeighted(nil, nil); w != nil {
		t.Error("empty weighted sampler should be nil")
	}
	if w := NewWeighted([]float64{1}, []float64{1, 2}); w != nil {
		t.Error("mismatched lengths should be nil")
	}
	if w := NewWeighted([]float64{1, 2}, []float64{0, 0}); w != nil {
		t.Error("all-zero weights should be nil")
	}
	if w := NewWeighted([]float64{1, 2}, []float64{1, -1}); w != nil {
		t.Error("negative weight should be nil")
	}
	if w := NewWeighted([]float64{1, 2}, []float64{1, 3}); w == nil || w.Len() != 2 {
		t.Error("valid sampler rejected")
	}
}

func TestWeightedDistribution(t *testing.T) {
	w := NewWeighted([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5})
	r := New(13)
	counts := map[float64]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	for v, want := range map[float64]float64{1: 0.2, 2: 0.3, 3: 0.5} {
		got := float64(counts[v]) / n
		if math.Abs(got-want) > 0.015 {
			t.Errorf("value %v frequency %v, want ~%v", v, got, want)
		}
	}
}

func TestWeightedSampleOnlySupportValues(t *testing.T) {
	w := NewWeighted([]float64{7, 11}, []float64{1, 0})
	r := New(14)
	for i := 0; i < 1000; i++ {
		if got := w.Sample(r); got != 7 {
			t.Fatalf("zero-weight value sampled: %v", got)
		}
	}
}

func TestPermAndShuffle(t *testing.T) {
	r := New(15)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Perm(10) invalid: %v", p)
		}
		seen[v] = true
	}
	xs := []int{1, 2, 3, 4, 5}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Errorf("Shuffle changed multiset: %v", xs)
	}
}

func TestReseedMatchesFresh(t *testing.T) {
	// Reseed must put a used Rand into exactly the state New would produce:
	// this is what lets hot loops reuse one scratch generator for per-item
	// keyed streams without changing any seeded output.
	scratch := New(1)
	scratch.Float64()
	scratch.NormFloat64()
	scratch.Split()
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		fresh := New(seed)
		scratch.Reseed(seed)
		for i := 0; i < 8; i++ {
			if a, b := fresh.Float64(), scratch.Float64(); a != b {
				t.Fatalf("seed %d draw %d: fresh %v, reseeded %v", seed, i, a, b)
			}
		}
		if a, b := fresh.NormFloat64(), scratch.NormFloat64(); a != b {
			t.Fatalf("seed %d: NormFloat64 fresh %v, reseeded %v", seed, a, b)
		}
		if a, b := fresh.Intn(1000), scratch.Intn(1000); a != b {
			t.Fatalf("seed %d: Intn fresh %v, reseeded %v", seed, a, b)
		}
		// Checkpoint state and child-stream derivation reset too.
		if fresh.State() != scratch.State() {
			t.Fatalf("seed %d: state fresh %+v, reseeded %+v", seed, fresh.State(), scratch.State())
		}
		if a, b := fresh.Split().Float64(), scratch.Split().Float64(); a != b {
			t.Fatalf("seed %d: Split child fresh %v, reseeded %v", seed, a, b)
		}
	}
}
