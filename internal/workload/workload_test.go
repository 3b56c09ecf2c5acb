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
		g := ChooseGame(nil, catalog, r, nil)
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
		if g := ChooseGame(friendGames, catalog, r, nil); g.ID != 3 {
			t.Fatalf("majority game not chosen: %d", g.ID)
		}
	}
}

func TestChooseGameTiesAreRandom(t *testing.T) {
	catalog := game.Catalog()
	r := rng.New(7)
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		g := ChooseGame([]int{1, 2}, catalog, r, nil)
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
	g := ChooseGame([]int{999}, catalog, r, nil)
	if g.ID < 1 || g.ID > 5 {
		t.Errorf("fallback game %d", g.ID)
	}
}

func TestChooseGameEmptyCatalog(t *testing.T) {
	r := rng.New(9)
	g := ChooseGame([]int{1}, nil, r, nil)
	if g.ID != 0 {
		t.Errorf("empty catalog returned game %d", g.ID)
	}
}

// chooseGameMap is ChooseGame as it was written with a count map and a
// slice of tied games: the oracle TestChooseGameMatchesMapOracle holds the
// dense count and the walk to the k-th tied game to.
func chooseGameMap(friendGames []int, catalog []game.Game, r *rng.Rand) game.Game {
	if len(catalog) == 0 {
		return game.Game{}
	}
	if len(friendGames) == 0 {
		return catalog[r.Intn(len(catalog))]
	}
	counts := make(map[int]int)
	for _, id := range friendGames {
		counts[id]++
	}
	bestN := 0
	for _, n := range counts {
		if n > bestN {
			bestN = n
		}
	}
	var tied []game.Game
	for _, g := range catalog {
		if counts[g.ID] == bestN && bestN > 0 {
			tied = append(tied, g)
		}
	}
	if len(tied) == 0 {
		return catalog[r.Intn(len(catalog))]
	}
	return tied[r.Intn(len(tied))]
}

// TestChooseGameMatchesMapOracle draws random friend-game lists — IDs in
// and out of the catalog, ties of every size — over catalogs with gaps,
// duplicates and IDs past the scratch's length, and requires ChooseGame to
// pick what the map oracle picks from the same stream, leaving the scratch
// zeroed.
func TestChooseGameMatchesMapOracle(t *testing.T) {
	full := game.Catalog()
	catalogs := [][]game.Game{
		full,
		{full[2], full[0], full[4]},
		{full[1], full[1], full[3]},
		append([]game.Game{{ID: 12}}, full...),
	}
	gen := rng.New(11)
	counts := make([]int, 8)
	for i := 0; i < 20000; i++ {
		catalog := catalogs[i%len(catalogs)]
		friendGames := make([]int, gen.Intn(12))
		for j := range friendGames {
			friendGames[j] = gen.Intn(8)
			if gen.Bool(0.05) {
				friendGames[j] = 12 + gen.Intn(3)
			}
		}
		seed := uint64(i)
		scratch := counts
		if i%3 == 0 {
			scratch = nil
		}
		got := ChooseGame(friendGames, catalog, rng.New(seed), scratch)
		want := chooseGameMap(friendGames, catalog, rng.New(seed))
		if got.ID != want.ID {
			t.Fatalf("friends %v, catalog of %d: ChooseGame %d, oracle %d", friendGames, len(catalog), got.ID, want.ID)
		}
		for id, n := range counts {
			if n != 0 {
				t.Fatalf("friends %v: scratch count of game %d left at %d", friendGames, id, n)
			}
		}
	}
}

// TestChooseGameAllocs pins ChooseGame with a long enough scratch at zero
// allocations.
func TestChooseGameAllocs(t *testing.T) {
	catalog := game.Catalog()
	counts := make([]int, len(catalog)+1)
	friendGames := []int{3, 1, 3, 2, 1, 5}
	r := rng.New(4)
	allocs := testing.AllocsPerRun(100, func() {
		ChooseGame(friendGames, catalog, r, counts)
	})
	if allocs != 0 {
		t.Errorf("ChooseGame allocates %v times per call, want 0", allocs)
	}
}
