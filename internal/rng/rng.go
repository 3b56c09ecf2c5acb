// Package rng provides a deterministic, splittable random number generator
// and the distribution samplers used throughout the CloudFog simulator.
//
// Every stochastic component in the simulator takes an explicit *Rand so
// that experiment results are reproducible bit-for-bit from a seed. Rand
// wraps math/rand's PCG-free source with a SplitMix64-style stream deriver
// so that independent subsystems (workload, network jitter, churn, ...) can
// draw from statistically independent streams derived from one master seed.
package rng

import (
	"math"
	"math/rand"
)

// Rand is a deterministic random source with distribution helpers.
// It is NOT safe for concurrent use; derive one per goroutine with Split.
type Rand struct {
	src *rand.Rand
	// cnt is the draw-counting source feeding src; its tally is what
	// State captures and Restore replays.
	cnt *countingSource
	// seed retains the construction seed so Split can derive child streams.
	seed uint64
	// splits counts how many children have been derived, making every
	// Split call produce a distinct stream.
	splits uint64
}

// splitmixSource is a SplitMix64 generator exposed as a rand.Source64.
//
// It replaced math/rand's default lagged-Fibonacci source when profiling
// showed the simulator spending ~65% of its CPU inside rngSource.Seed: the
// hot loops derive a fresh keyed stream per (player, tick) decision (see
// core.decisionKey and netmodel.CongestionFactor), and the stock source
// pays a 607-entry seed expansion plus a ~5 KB allocation per derivation.
// SplitMix64 seeds in O(1), carries 8 bytes of state, and advances exactly
// one step per draw — which also makes checkpoint restore O(1): the state
// after n draws is seed + n·gamma (see state.go).
//
// The distribution helpers still go through math/rand.Rand, so Intn,
// NormFloat64, ExpFloat64, Perm, and Shuffle keep their stock algorithms;
// only the raw 64-bit stream underneath changed.
type splitmixSource struct {
	s uint64
}

// gamma is the SplitMix64 state increment (the golden-ratio constant).
const gamma = 0x9e3779b97f4a7c15

func (s *splitmixSource) Uint64() uint64 {
	s.s += gamma
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmixSource) Seed(seed int64) { s.s = uint64(seed) }

// New returns a Rand seeded with seed. Both literals escape New itself,
// but New inlines into its hot callers (the keyed per-draw streams in
// netmodel), where escape analysis keeps them on the stack — the
// eval-phase AllocsPerRun gates pin the whole path at zero.
func New(seed uint64) *Rand {
	cnt := &countingSource{src: splitmixSource{s: mix(seed)}}
	return &Rand{
		src:  rand.New(cnt),
		cnt:  cnt,
		seed: seed,
	}
}

// Reseed resets r in place to exactly the state New(seed) returns, without
// allocating. Hot loops that derive a fresh keyed stream per item (one per
// player-tick decision) reuse one scratch Rand through Reseed instead of
// paying rng.New's three allocations each time. The subsequent draw sequence
// is identical to a fresh Rand's: math/rand.Rand keeps no per-instance
// distribution state (the ziggurat tables are global, and the Read buffer is
// untouched because the simulator never calls Read).
func (r *Rand) Reseed(seed uint64) {
	r.cnt.src.s = mix(seed)
	r.cnt.draws = 0
	r.seed = seed
	r.splits = 0
}

// Split derives a new, statistically independent Rand from r. Successive
// calls yield distinct streams. The parent stream is not perturbed, so a
// fixed sequence of Split calls is itself deterministic.
func (r *Rand) Split() *Rand {
	r.splits++
	return New(mix(r.seed ^ (r.splits * 0x9e3779b97f4a7c15)))
}

// SplitNamed derives a child stream keyed by a stable name, so that adding
// new consumers does not disturb the streams of existing ones.
func (r *Rand) SplitNamed(name string) *Rand {
	h := r.seed
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return New(mix(h))
}

// mix is the SplitMix64 finalizer; it decorrelates nearby seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Uniform returns a uniform sample in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// NormFloat64 returns a standard-normal sample.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

// Normal returns a normal sample with the given mean and standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// Pareto returns a sample from a Pareto distribution with minimum value
// xm > 0 and shape alpha > 0. The paper uses Pareto-distributed supernode
// capacities (alpha = 2) and node capacities (alpha = 1, mean 5).
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.src.Float64()
	// Guard the open interval: Float64 may return exactly 0.
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson sample with the given mean (lambda >= 0).
// Knuth's algorithm is used for small lambda and a normal approximation
// (rounded, clamped at zero) for large lambda.
func (r *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := math.Round(r.Normal(lambda, math.Sqrt(lambda)))
		if n < 0 {
			return 0
		}
		return int(n)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf returns a sample in [1, n] following a Zipf (power-law) distribution
// with skew s > 0. Used for friend counts (skew 1.5 per the paper).
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 1
	}
	// Inverse-CDF over the discrete normalized weights. n is small in our
	// usage (max friends per player), so a linear scan is fine.
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
	}
	u := r.src.Float64() * total
	var acc float64
	for k := 1; k <= n; k++ {
		acc += 1 / math.Pow(float64(k), s)
		if u < acc {
			return k
		}
	}
	return n
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements via swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Weighted is a discrete distribution sampled by cumulative weight.
type Weighted struct {
	values  []float64
	cumulat []float64
	total   float64
}

// NewWeighted builds a weighted sampler over parallel value/weight slices.
// All weights must be non-negative and at least one must be positive;
// otherwise NewWeighted returns nil.
func NewWeighted(values, weights []float64) *Weighted {
	if len(values) != len(weights) || len(values) == 0 {
		return nil
	}
	w := &Weighted{
		values:  append([]float64(nil), values...),
		cumulat: make([]float64, len(weights)),
	}
	for i, wt := range weights {
		if wt < 0 {
			return nil
		}
		w.total += wt
		w.cumulat[i] = w.total
	}
	if w.total <= 0 {
		return nil
	}
	return w
}

// Sample draws one value according to the weights.
func (w *Weighted) Sample(r *Rand) float64 {
	u := r.Float64() * w.total
	// Binary search over the cumulative weights.
	lo, hi := 0, len(w.cumulat)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u < w.cumulat[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return w.values[lo]
}

// Len returns the number of support points.
func (w *Weighted) Len() int { return len(w.values) }
