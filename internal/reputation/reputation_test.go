package reputation

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewBookClampsLambda(t *testing.T) {
	for _, bad := range []float64{-1, 0, 1, 2} {
		if got := NewBook(bad).Lambda(); got != DefaultLambda {
			t.Errorf("NewBook(%v).Lambda() = %v, want default", bad, got)
		}
	}
	if got := NewBook(0.8).Lambda(); got != 0.8 {
		t.Errorf("valid lambda rejected: %v", got)
	}
}

func TestScoreNoHistoryIsZero(t *testing.T) {
	b := NewBook(0.9)
	if got := b.Score(1, 10); got != 0 {
		t.Errorf("unknown supernode score = %v, want 0 per the paper", got)
	}
}

func TestScoreSingleRating(t *testing.T) {
	b := NewBook(0.9)
	b.Rate(1, 0.8, 5)
	// Same-day score: 0.8 * 0.9^0 / 1 = 0.8.
	if got := b.Score(1, 5); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("same-day score = %v", got)
	}
	// Three days later: 0.8 * 0.9^3.
	want := 0.8 * math.Pow(0.9, 3)
	if got := b.Score(1, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("aged score = %v, want %v", got, want)
	}
}

func TestScoreEquation7(t *testing.T) {
	// s_ij = (1/N_r) * sum_k r_k * lambda^d_k, checked against a hand
	// computation with two ratings.
	b := NewBook(0.5)
	b.Rate(7, 1.0, 0)
	b.Rate(7, 0.5, 2)
	// On day 3: (1.0*0.5^3 + 0.5*0.5^1) / 2 = (0.125 + 0.25)/2 = 0.1875.
	if got := b.Score(7, 3); math.Abs(got-0.1875) > 1e-12 {
		t.Errorf("Eq.7 score = %v, want 0.1875", got)
	}
}

func TestRatingClamped(t *testing.T) {
	b := NewBook(0.9)
	b.Rate(1, 1.7, 0)
	b.Rate(2, -0.4, 0)
	if got := b.Score(1, 0); got != 1 {
		t.Errorf("overflow rating score = %v", got)
	}
	if got := b.Score(2, 0); got != 0 {
		t.Errorf("underflow rating score = %v", got)
	}
}

func TestScoreDecaysWithAgeProperty(t *testing.T) {
	// Property: for any rating history, the score never increases as the
	// evaluation day advances (all ratings only age).
	f := func(vals []uint8, seed uint8) bool {
		b := NewBook(0.9)
		for i, v := range vals {
			b.Rate(1, float64(v)/255, i)
		}
		last := len(vals)
		s1 := b.Score(1, last)
		s2 := b.Score(1, last+3)
		return s2 <= s1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreBoundedProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		b := NewBook(0.9)
		for i, v := range vals {
			b.Rate(3, float64(v)/255, i)
		}
		s := b.Score(3, len(vals))
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecentRatingsDominate(t *testing.T) {
	// A supernode that was bad long ago but good recently must outscore
	// one that was good long ago but bad recently.
	b := NewBook(0.8)
	b.Rate(1, 0.1, 0)
	b.Rate(1, 0.9, 20)
	b.Rate(2, 0.9, 0)
	b.Rate(2, 0.1, 20)
	if b.Score(1, 20) <= b.Score(2, 20) {
		t.Errorf("recency weighting broken: %v vs %v", b.Score(1, 20), b.Score(2, 20))
	}
}

func TestPrune(t *testing.T) {
	b := NewBook(0.9)
	b.Rate(1, 0.5, 0)
	b.Rate(1, 0.6, 50)
	b.Rate(2, 0.7, 0)
	b.Prune(60, 30)
	if n := len(b.ratings[1]); n != 1 {
		t.Errorf("supernode 1 ratings after prune = %d, want 1", n)
	}
	if n := len(b.ratings[2]); n != 0 {
		t.Errorf("supernode 2 ratings after prune = %d, want 0", n)
	}
}

func TestNegativeAgeTreatedAsZero(t *testing.T) {
	b := NewBook(0.9)
	b.Rate(1, 0.8, 10)
	// Evaluating "before" the rating day must not amplify the rating.
	if got := b.Score(1, 5); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("future rating score = %v, want 0.8", got)
	}
}

func TestGlobalBook(t *testing.T) {
	g := NewGlobalBook(0.9)
	if g.Score(1, 0) != 0 {
		t.Error("empty global score not 0")
	}
	g.Rate(1, 0.8, 0)
	g.Rate(1, 0.6, 0)
	if got := g.Score(1, 0); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("global score = %v, want 0.7", got)
	}
	// Sybil attack surface the paper warns about: many fake ratings swing
	// the global score — demonstrating why CloudFog uses per-player books.
	for i := 0; i < 100; i++ {
		g.Rate(1, 1.0, 0)
	}
	if g.Score(1, 0) < 0.95 {
		t.Error("expected the global book to be swayed by rating floods")
	}
	if NewGlobalBook(5).Score(9, 3) != 0 {
		t.Error("lambda clamp broken for global book")
	}
}

func TestBooksConcurrencySafe(t *testing.T) {
	// The fognet cloud rates supernodes from concurrent player connections
	// while ranking ladders; run under -race.
	b := NewBook(0.9)
	g := NewGlobalBook(0.9)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := (w*200 + i) % 16
				b.Rate(id, float64(i%10)/10, i%7)
				g.Rate(id, float64(i%10)/10, i%7)
				_ = b.Score(id, i%7)
				_ = g.Score(id, i%7)
				_ = g.NumRatings(id)
				if i%50 == 0 {
					b.Prune(i%7, 3)
				}
			}
		}(w)
	}
	wg.Wait()
	if len(b.ratings[0]) == 0 || g.NumRatings(0) == 0 {
		t.Error("concurrent ratings lost")
	}
}
