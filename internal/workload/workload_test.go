package workload

import (
	"math"
	"testing"
	"testing/quick"

	"cloudfog/internal/game"
	"cloudfog/internal/rng"
)

func TestIsPeak(t *testing.T) {
	for sub := 1; sub <= SubcyclesPerCycle; sub++ {
		want := sub >= 20 && sub <= 24
		if IsPeak(sub) != want {
			t.Errorf("IsPeak(%d) = %v", sub, IsPeak(sub))
		}
	}
}

func TestSampleBehaviorMix(t *testing.T) {
	r := rng.New(1)
	counts := map[BehaviorClass]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[SampleBehavior(r)]++
	}
	for class, want := range map[BehaviorClass]float64{
		ShortSession: 0.5, MediumSession: 0.3, LongSession: 0.2,
	} {
		got := float64(counts[class]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%v frequency %v, want ~%v", class, got, want)
		}
	}
}

func TestBehaviorString(t *testing.T) {
	if ShortSession.String() != "short" || MediumSession.String() != "medium" ||
		LongSession.String() != "long" || BehaviorClass(0).String() != "unknown" {
		t.Error("BehaviorClass.String mismatch")
	}
}

func TestScheduleDayValidProperty(t *testing.T) {
	// Property: sessions always fit the day and have positive duration.
	f := func(seed uint64, classRaw uint8) bool {
		r := rng.New(seed)
		class := BehaviorClass(classRaw%3) + 1
		s := ScheduleDay(class, r)
		return s.Start >= 1 && s.Start <= SubcyclesPerCycle &&
			s.Duration >= 1 && s.Start+s.Duration <= SubcyclesPerCycle+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScheduleDayDurationsByClass(t *testing.T) {
	r := rng.New(2)
	maxDur := map[BehaviorClass]int{ShortSession: 2, MediumSession: 5, LongSession: 24}
	for class, bound := range maxDur {
		for i := 0; i < 2000; i++ {
			s := ScheduleDay(class, r)
			if s.Duration > bound {
				t.Fatalf("%v session lasted %d > %d", class, s.Duration, bound)
			}
		}
	}
}

func TestScheduleDayPeakBias(t *testing.T) {
	r := rng.New(3)
	peak := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if IsPeak(ScheduleDay(ShortSession, r).Start) {
			peak++
		}
	}
	p := float64(peak) / n
	if math.Abs(p-0.7) > 0.02 {
		t.Errorf("peak start fraction %v, want ~0.7", p)
	}
}

func TestSessionActive(t *testing.T) {
	s := Session{Start: 10, Duration: 3}
	for sub, want := range map[int]bool{9: false, 10: true, 11: true, 12: true, 13: false} {
		if s.Active(sub) != want {
			t.Errorf("Active(%d) = %v", sub, s.Active(sub))
		}
	}
	var zero Session
	if zero.Active(1) {
		t.Error("zero session active")
	}
}

func TestArrivalScript(t *testing.T) {
	a := ArrivalScript{OffPeakPerMinute: 2, PeakPerMinute: 10}
	if a.RatePerMinute(10) != 2 {
		t.Error("off-peak rate wrong")
	}
	if a.RatePerMinute(22) != 10 {
		t.Error("peak rate wrong")
	}
	r := rng.New(4)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += float64(a.ArrivalsInSubcycle(22, r))
	}
	mean := sum / n
	if math.Abs(mean-600) > 20 { // 10/min * 60 min
		t.Errorf("peak arrivals mean %v, want ~600", mean)
	}
}

func TestChooseGameNoFriends(t *testing.T) {
	catalog := game.Catalog()
	r := rng.New(5)
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		g := ChooseGame(nil, catalog, r)
		counts[g.ID]++
	}
	for _, g := range catalog {
		p := float64(counts[g.ID]) / 10000
		if math.Abs(p-0.2) > 0.03 {
			t.Errorf("game %d chosen with frequency %v, want ~0.2", g.ID, p)
		}
	}
}

func TestChooseGameFollowsMajority(t *testing.T) {
	catalog := game.Catalog()
	r := rng.New(6)
	friendGames := []int{3, 3, 3, 1, 2}
	for i := 0; i < 100; i++ {
		if g := ChooseGame(friendGames, catalog, r); g.ID != 3 {
			t.Fatalf("majority game not chosen: %d", g.ID)
		}
	}
}

func TestChooseGameTiesAreRandom(t *testing.T) {
	catalog := game.Catalog()
	r := rng.New(7)
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		g := ChooseGame([]int{1, 2}, catalog, r)
		counts[g.ID]++
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("tie broken deterministically: %v", counts)
	}
	if counts[3]+counts[4]+counts[5] != 0 {
		t.Fatalf("non-tied game chosen: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("tie not uniform: %v", counts)
	}
}

func TestChooseGameUnknownFriendGames(t *testing.T) {
	catalog := game.Catalog()
	r := rng.New(8)
	// Friend games not in the catalog: falls back to random.
	g := ChooseGame([]int{999}, catalog, r)
	if g.ID < 1 || g.ID > 5 {
		t.Errorf("fallback game %d", g.ID)
	}
}

func TestChooseGameEmptyCatalog(t *testing.T) {
	r := rng.New(9)
	g := ChooseGame([]int{1}, nil, r)
	if g.ID != 0 {
		t.Errorf("empty catalog returned game %d", g.ID)
	}
}
