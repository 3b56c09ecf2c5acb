package game

import (
	"testing"
)

func TestLadderMatchesTable2(t *testing.T) {
	ladder := Ladder()
	if len(ladder) != NumQualityLevels {
		t.Fatalf("ladder has %d rungs", len(ladder))
	}
	wantBitrates := []float64{300, 500, 800, 1200, 1800}
	wantLatency := []float64{30, 50, 70, 90, 110}
	wantTolerance := []float64{0.6, 0.7, 0.8, 0.9, 1.0}
	for i, q := range ladder {
		if q.Level != QualityLevel(i+1) {
			t.Errorf("rung %d has level %d", i, q.Level)
		}
		if q.BitrateKbps != wantBitrates[i] {
			t.Errorf("level %d bitrate %v, want %v", q.Level, q.BitrateKbps, wantBitrates[i])
		}
		if q.LatencyRequirementMs != wantLatency[i] {
			t.Errorf("level %d latency %v, want %v", q.Level, q.LatencyRequirementMs, wantLatency[i])
		}
		if q.ToleranceDegree != wantTolerance[i] {
			t.Errorf("level %d tolerance %v, want %v", q.Level, q.ToleranceDegree, wantTolerance[i])
		}
		if q.Resolution == "" {
			t.Errorf("level %d missing resolution", q.Level)
		}
	}
}

func TestLadderMonotone(t *testing.T) {
	ladder := Ladder()
	for i := 1; i < len(ladder); i++ {
		if ladder[i].BitrateKbps <= ladder[i-1].BitrateKbps {
			t.Error("bitrates not strictly increasing")
		}
		if ladder[i].LatencyRequirementMs <= ladder[i-1].LatencyRequirementMs {
			t.Error("latency requirements not strictly increasing")
		}
		if ladder[i].ToleranceDegree <= ladder[i-1].ToleranceDegree {
			t.Error("tolerance degrees not strictly increasing")
		}
	}
}

func TestLadderIsCopy(t *testing.T) {
	l := Ladder()
	l[0].BitrateKbps = 99999
	if Ladder()[0].BitrateKbps == 99999 {
		t.Error("Ladder exposes internal state")
	}
}

func TestQualityFor(t *testing.T) {
	q, err := QualityFor(3)
	if err != nil || q.Level != 3 {
		t.Errorf("QualityFor(3) = %+v, %v", q, err)
	}
	if _, err := QualityFor(0); err == nil {
		t.Error("QualityFor(0) accepted")
	}
	if _, err := QualityFor(6); err == nil {
		t.Error("QualityFor(6) accepted")
	}
}

func TestMustQualityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustQuality(0) did not panic")
		}
	}()
	MustQuality(0)
}

func TestBitrateKbpsMatchesLadder(t *testing.T) {
	for level := QualityLevel(1); level <= NumQualityLevels; level++ {
		if got, want := BitrateKbps(level), MustQuality(level).BitrateKbps; got != want {
			t.Errorf("BitrateKbps(%d) = %v, ladder %v", level, got, want)
		}
	}
	for _, level := range []QualityLevel{0, NumQualityLevels + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BitrateKbps(%d) did not panic", level)
				}
			}()
			BitrateKbps(level)
		}()
	}
}

func TestCatalog(t *testing.T) {
	games := Catalog()
	if len(games) != NumQualityLevels {
		t.Fatalf("catalog has %d games", len(games))
	}
	seen := map[int]bool{}
	for i, g := range games {
		if g.ID != i+1 {
			t.Errorf("game %d has ID %d", i, g.ID)
		}
		if seen[g.ID] {
			t.Errorf("duplicate game ID %d", g.ID)
		}
		seen[g.ID] = true
		if g.Name == "" {
			t.Errorf("game %d unnamed", g.ID)
		}
		q := g.Quality()
		if q.Level != g.DefaultQuality {
			t.Errorf("game %d quality mismatch", g.ID)
		}
		if g.LatencyRequirementMs != q.LatencyRequirementMs {
			t.Errorf("game %d latency requirement %v != ladder %v",
				g.ID, g.LatencyRequirementMs, q.LatencyRequirementMs)
		}
		if g.ToleranceDegree != q.ToleranceDegree {
			t.Errorf("game %d tolerance mismatch", g.ID)
		}
	}
}

func TestFrameRate(t *testing.T) {
	// OnLive's 30 fps is the paper's experimental setting.
	if FrameRate != 30 {
		t.Errorf("FrameRate = %d, want 30", FrameRate)
	}
}
