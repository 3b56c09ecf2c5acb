// Package workload generates the player activity driving the CloudFog
// experiments: diurnal session schedules, session-length mixes, Poisson
// arrival bursts for the churn experiments, and friend-driven game choice.
//
// The paper's settings reproduced here:
//
//   - each experiment cycle is one day of 24 one-hour subcycles; subcycles
//     20–24 (8 pm–12 am) are peak hours;
//   - 50% of players play (0,2] hours a day, 30% play (2,5] hours, and 20%
//     play (5,24] hours (after Hellstrom et al.);
//   - a player's start time falls in peak subcycles with probability 70%;
//   - players join in Poisson bursts; churn experiments sweep the peak-hour
//     arrival rate;
//   - a joining player picks the game most of its online friends play, or a
//     uniformly random game when no friend is online.
package workload

import (
	"cloudfog/internal/game"
	"cloudfog/internal/rng"
)

// SubcyclesPerCycle is the number of hourly subcycles per daily cycle.
const SubcyclesPerCycle = 24

// Peak-hour window (1-based subcycles, inclusive): 8 pm to midnight.
const (
	PeakStartSubcycle = 20
	PeakEndSubcycle   = 24
)

// IsPeak reports whether the (1-based) subcycle is a peak hour.
func IsPeak(subcycle int) bool {
	return subcycle >= PeakStartSubcycle && subcycle <= PeakEndSubcycle
}

// BehaviorClass is a player's daily play-time class.
type BehaviorClass int

const (
	// ShortSession players play (0, 2] hours a day (50% of players).
	ShortSession BehaviorClass = iota + 1
	// MediumSession players play (2, 5] hours a day (30%).
	MediumSession
	// LongSession players play (5, 24] hours a day (20%).
	LongSession
)

// String returns the class name.
func (b BehaviorClass) String() string {
	switch b {
	case ShortSession:
		return "short"
	case MediumSession:
		return "medium"
	case LongSession:
		return "long"
	default:
		return "unknown"
	}
}

// SampleBehavior draws a behavior class with the paper's 50/30/20 mix.
func SampleBehavior(r *rng.Rand) BehaviorClass {
	u := r.Float64()
	switch {
	case u < 0.5:
		return ShortSession
	case u < 0.8:
		return MediumSession
	default:
		return LongSession
	}
}

// sessionHours samples the daily play duration for a class.
func sessionHours(class BehaviorClass, r *rng.Rand) int {
	switch class {
	case ShortSession:
		return 1 + r.Intn(2) // 1..2
	case MediumSession:
		return 3 + r.Intn(3) // 3..5
	default:
		return 6 + r.Intn(19) // 6..24
	}
}

// Session is one day's play window for a player, in 1-based subcycles.
// The window is [Start, Start+Duration), clipped to the end of the day.
type Session struct {
	// Start is the first subcycle of play, in [1, 24].
	Start int
	// Duration is the number of subcycles played.
	Duration int
}

// Active reports whether the session covers the (1-based) subcycle.
func (s Session) Active(subcycle int) bool {
	return subcycle >= s.Start && subcycle < s.Start+s.Duration
}

// ScheduleDay samples a player's session for one cycle: the start subcycle
// lands in peak hours with probability 70%, and the duration follows the
// player's behavior class (clipped to the end of the day).
func ScheduleDay(class BehaviorClass, r *rng.Rand) Session {
	var start int
	if r.Bool(0.7) {
		start = PeakStartSubcycle + r.Intn(PeakEndSubcycle-PeakStartSubcycle+1)
	} else {
		start = 1 + r.Intn(PeakStartSubcycle-1)
	}
	dur := sessionHours(class, r)
	if start+dur > SubcyclesPerCycle+1 {
		dur = SubcyclesPerCycle + 1 - start
	}
	if dur < 1 {
		dur = 1
	}
	return Session{Start: start, Duration: dur}
}

// ArrivalScript describes the Poisson player-arrival process of the churn
// experiments (Fig. 13–15): a low off-peak rate and a swept peak rate, in
// players per minute.
type ArrivalScript struct {
	// OffPeakPerMinute is the arrival rate outside peak hours.
	OffPeakPerMinute float64
	// PeakPerMinute is the arrival rate during peak hours.
	PeakPerMinute float64
}

// RatePerMinute returns the arrival rate in effect during the subcycle.
func (a ArrivalScript) RatePerMinute(subcycle int) float64 {
	if IsPeak(subcycle) {
		return a.PeakPerMinute
	}
	return a.OffPeakPerMinute
}

// ArrivalsInSubcycle samples the number of players arriving during one
// hourly subcycle.
func (a ArrivalScript) ArrivalsInSubcycle(subcycle int, r *rng.Rand) int {
	return r.Poisson(a.RatePerMinute(subcycle) * 60)
}

// ChooseGame implements the paper's friend-driven game choice: "if none of
// its friends is playing, it randomly chooses a game to play; otherwise, it
// chooses the game that has the largest number of its friends playing".
// friendGames holds the game IDs the player's online friends are currently
// playing (with repetition); catalog is the available game list. Game IDs
// are non-negative, as the catalog's are.
//
// counts is scratch indexed by game ID, all zeros, and is left that way. A
// caller that chooses often passes the same slice, one longer than the
// largest ID, to allocate nothing; a shorter one (or nil) is replaced.
func ChooseGame(friendGames []int, catalog []game.Game, r *rng.Rand, counts []int) game.Game {
	if len(catalog) == 0 {
		return game.Game{}
	}
	if len(friendGames) == 0 {
		return catalog[r.Intn(len(catalog))]
	}
	maxID := 0
	for _, id := range friendGames {
		maxID = max(maxID, id)
	}
	if len(counts) <= maxID {
		counts = make([]int, maxID+1)
	}
	bestN := 0
	for _, id := range friendGames {
		counts[id]++
		bestN = max(bestN, counts[id])
	}
	tied := func(g game.Game) bool {
		return g.ID >= 0 && g.ID < len(counts) && counts[g.ID] == bestN
	}
	nTied := 0
	for _, g := range catalog {
		if tied(g) {
			nTied++
		}
	}
	// Ties are broken uniformly at random: a deterministic tie-break would
	// cascade the whole population onto one title. The draw picks the k-th
	// tied catalog entry.
	var chosen game.Game
	if nTied == 0 {
		chosen = catalog[r.Intn(len(catalog))]
	} else {
		k := r.Intn(nTied)
		for _, g := range catalog {
			if tied(g) {
				if k == 0 {
					chosen = g
					break
				}
				k--
			}
		}
	}
	for _, id := range friendGames {
		counts[id] = 0
	}
	return chosen
}
