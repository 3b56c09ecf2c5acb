package provisioning

import (
	"math"
	"testing"
	"testing/quick"

	"cloudfog/internal/rng"
)

func TestNewForecasterValidation(t *testing.T) {
	if _, err := NewForecaster(0, 0.3, 0.5); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewForecaster(42, -0.1, 0.5); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := NewForecaster(42, 0.3, 1.0); err == nil {
		t.Error("Theta=1 accepted")
	}
	f, err := NewForecaster(42, 0.3, 0.5)
	if err != nil || f.period != 42 {
		t.Errorf("valid forecaster rejected: %v", err)
	}
}

func TestForecastColdStart(t *testing.T) {
	f, _ := NewForecaster(7, 0.3, 0.5)
	if got := f.Forecast(); got != 0 {
		t.Errorf("empty forecast = %v", got)
	}
	f.Observe(100)
	if got := f.Forecast(); got != 100 {
		t.Errorf("naive forecast = %v, want last observation", got)
	}
}

func TestForecastNonNegativeProperty(t *testing.T) {
	// Property: forecasts are never negative whatever the history.
	f := func(obs []uint16) bool {
		fc, _ := NewForecaster(5, 0.3, 0.5)
		for _, o := range obs {
			fc.Forecast()
			fc.Observe(float64(o % 1000))
		}
		return fc.Forecast() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForecastLearnsSeasonalPattern(t *testing.T) {
	// A perfectly periodic series must be forecast almost exactly once a
	// full season of history exists.
	period := 12
	pattern := []float64{10, 20, 50, 120, 200, 260, 300, 280, 200, 120, 60, 20}
	f, _ := NewForecaster(period, 0.3, 0.5)
	var maxErr float64
	for week := 0; week < 6; week++ {
		for i := 0; i < period; i++ {
			pred := f.Forecast()
			actual := pattern[i]
			if week >= 3 {
				if e := math.Abs(pred - actual); e > maxErr {
					maxErr = e
				}
			}
			f.Observe(actual)
		}
	}
	if maxErr > 15 {
		t.Errorf("seasonal forecast error %v too large", maxErr)
	}
	if len(f.observed) != 6*period {
		t.Errorf("history = %d", len(f.observed))
	}
}

func TestForecastTracksGrowth(t *testing.T) {
	// Week-over-week growth must be extrapolated, not just repeated.
	period := 4
	f, _ := NewForecaster(period, 0.3, 0.5)
	for w := 0; w < 5; w++ {
		for i := 0; i < period; i++ {
			f.Forecast()
			f.Observe(float64(100*w + 10*i))
		}
	}
	pred := f.Forecast()
	// Next value in the pattern is 100*5 + 0 = 500.
	if math.Abs(pred-500) > 60 {
		t.Errorf("growth forecast %v, want ~500", pred)
	}
}

func TestObserveClampsNegative(t *testing.T) {
	f, _ := NewForecaster(3, 0.3, 0.5)
	f.Observe(-10)
	if got := f.Forecast(); got != 0 {
		t.Errorf("negative observation leaked: %v", got)
	}
}

func TestSupernodeCount(t *testing.T) {
	tests := []struct {
		name      string
		predicted float64
		epsilon   float64
		avgCap    float64
		want      int
	}{
		{"exact", 100, 0, 10, 10},
		{"headroom", 100, 0.15, 10, 12},
		{"round up", 101, 0, 10, 11},
		{"zero predicted", 0, 0.15, 10, 0},
		{"zero capacity", 100, 0.15, 0, 0},
		{"negative epsilon treated as zero", 100, -1, 10, 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SupernodeCount(tt.predicted, tt.epsilon, tt.avgCap); got != tt.want {
				t.Errorf("SupernodeCount = %d, want %d", got, tt.want)
			}
		})
	}
}

func candidates(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{ID: i, PrevSupported: n - i} // ID 0 busiest
	}
	return out
}

func TestSelectCountAndUniqueness(t *testing.T) {
	r := rng.New(1)
	sel := Select(candidates(20), 8, r)
	if len(sel) != 8 {
		t.Fatalf("selected %d", len(sel))
	}
	seen := map[int]bool{}
	for _, c := range sel {
		if seen[c.ID] {
			t.Fatalf("duplicate selection %d", c.ID)
		}
		seen[c.ID] = true
	}
}

func TestSelectAllWhenCountExceeds(t *testing.T) {
	r := rng.New(2)
	if got := Select(candidates(5), 10, r); len(got) != 5 {
		t.Errorf("selected %d of 5", len(got))
	}
	if Select(nil, 3, r) != nil {
		t.Error("empty candidates should select nil")
	}
	if Select(candidates(5), 0, r) != nil {
		t.Error("count 0 should select nil")
	}
}

func TestSelectFavorsBusyRanks(t *testing.T) {
	// Eq. 16: rank j chosen with probability 1/j (normalized). Over many
	// draws, the busiest candidate must be selected far more often than a
	// deep rank.
	r := rng.New(3)
	topCount, deepCount := 0, 0
	for trial := 0; trial < 3000; trial++ {
		sel := Select(candidates(20), 1, r)
		switch sel[0].ID {
		case 0:
			topCount++
		case 19:
			deepCount++
		}
	}
	if topCount < 5*deepCount {
		t.Errorf("rank weighting weak: top=%d deep=%d", topCount, deepCount)
	}
	if deepCount == 0 {
		t.Error("deep ranks never selected; Eq.16 should give them some probability")
	}
}

func TestSelectTopK(t *testing.T) {
	sel := SelectTopK(candidates(10), 3)
	if len(sel) != 3 {
		t.Fatalf("selected %d", len(sel))
	}
	for i, c := range sel {
		if c.ID != i {
			t.Errorf("TopK[%d] = %d, want busiest-first", i, c.ID)
		}
	}
	if SelectTopK(nil, 2) != nil || SelectTopK(candidates(3), 0) != nil {
		t.Error("edge cases not nil")
	}
	if got := SelectTopK(candidates(2), 5); len(got) != 2 {
		t.Errorf("overlong TopK = %d", len(got))
	}
}

func TestSelectTieBreakByID(t *testing.T) {
	cands := []Candidate{{ID: 5, PrevSupported: 3}, {ID: 2, PrevSupported: 3}, {ID: 9, PrevSupported: 3}}
	sel := SelectTopK(cands, 3)
	if sel[0].ID != 2 || sel[1].ID != 5 || sel[2].ID != 9 {
		t.Errorf("tie-break not by ID: %v", sel)
	}
}
