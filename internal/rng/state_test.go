package rng

import (
	"math/rand"
	"testing"
)

// TestCountingSourcePreservesOutput pins that the draw-counting wrapper
// does not perturb the stream: a Rand must produce exactly the sequence of
// a bare math/rand generator over the same SplitMix64 source, across every
// helper (including Uint64-composing ones like Shuffle and Perm).
func TestCountingSourcePreservesOutput(t *testing.T) {
	r := New(42)
	ref := rand.New(&splitmixSource{s: mix(42)})
	for i := 0; i < 200; i++ {
		switch i % 5 {
		case 0:
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("Float64 #%d: %v != %v", i, got, want)
			}
		case 1:
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("Int63 #%d: %v != %v", i, got, want)
			}
		case 2:
			if got, want := r.NormFloat64(), ref.NormFloat64(); got != want {
				t.Fatalf("NormFloat64 #%d: %v != %v", i, got, want)
			}
		case 3:
			got, want := r.Perm(7), ref.Perm(7)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("Perm #%d: %v != %v", i, got, want)
				}
			}
		case 4:
			if got, want := r.Intn(1000), ref.Intn(1000); got != want {
				t.Fatalf("Intn #%d: %v != %v", i, got, want)
			}
		}
	}
}

// TestStateRestoreResumesStream checks the checkpoint/restore contract:
// after an arbitrary mixed draw history, a restored Rand continues with
// exactly the samples the original would have produced next.
func TestStateRestoreResumesStream(t *testing.T) {
	r := New(7)
	_ = r.Split()
	_ = r.SplitNamed("ladder")
	for i := 0; i < 137; i++ {
		switch i % 6 {
		case 0:
			r.Float64()
		case 1:
			r.Pareto(1, 2)
		case 2:
			r.Poisson(12)
		case 3:
			r.Zipf(9, 1.5)
		case 4:
			r.Normal(5, 2)
		case 5:
			r.Shuffle(5, func(i, j int) {})
		}
	}

	st := r.State()
	restored := Restore(st)

	for i := 0; i < 100; i++ {
		if got, want := restored.Float64(), r.Float64(); got != want {
			t.Fatalf("restored stream diverged at %d: %v != %v", i, got, want)
		}
	}

	// Split lineage must be preserved too: the next Split of both streams
	// must derive the same child.
	if got, want := restored.Split().Float64(), r.Split().Float64(); got != want {
		t.Fatalf("restored Split child diverged: %v != %v", got, want)
	}
}

// TestStateRoundTripIsStable checks State is a pure value: capturing twice
// without drawing yields identical states, and restoring does not perturb
// the captured position.
func TestStateRoundTripIsStable(t *testing.T) {
	r := New(99)
	r.Float64()
	a := r.State()
	b := r.State()
	if a != b {
		t.Fatalf("State not idempotent: %+v vs %+v", a, b)
	}
	if got := Restore(a).State(); got != a {
		t.Fatalf("Restore moved the stream: %+v vs %+v", got, a)
	}
}
