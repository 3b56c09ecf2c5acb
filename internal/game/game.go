// Package game defines the game catalog of the CloudFog simulator: the
// video quality ladder of Table 2 of the paper, per-game response-latency
// requirements and latency-tolerance degrees, and streaming frame
// parameters.
package game

import "fmt"

// FrameRate is the game-video frame rate. OnLive streams at 30 fps, and the
// paper sets the same rate in its experiments.
const FrameRate = 30

// QualityLevel indexes the bitrate ladder of Table 2, from 1 (lowest) to
// 5 (highest).
type QualityLevel int

// NumQualityLevels is the number of rungs in the Table 2 ladder.
const NumQualityLevels = 5

// Quality describes one rung of the Table 2 ladder.
type Quality struct {
	// Level is the quality level, 1..5.
	Level QualityLevel
	// Resolution is the video resolution ("width x height").
	Resolution string
	// BitrateKbps is the encoding bitrate at this level.
	BitrateKbps float64
	// LatencyRequirementMs is the response-latency requirement of a game
	// whose default quality is this level.
	LatencyRequirementMs float64
	// ToleranceDegree is the latency tolerance degree rho in [0, 1];
	// higher means more latency-tolerant.
	ToleranceDegree float64
}

// ladder is Table 2 of the paper.
var ladder = [NumQualityLevels]Quality{
	{Level: 1, Resolution: "288x216", BitrateKbps: 300, LatencyRequirementMs: 30, ToleranceDegree: 0.6},
	{Level: 2, Resolution: "384x216", BitrateKbps: 500, LatencyRequirementMs: 50, ToleranceDegree: 0.7},
	{Level: 3, Resolution: "512x384", BitrateKbps: 800, LatencyRequirementMs: 70, ToleranceDegree: 0.8},
	{Level: 4, Resolution: "720x486", BitrateKbps: 1200, LatencyRequirementMs: 90, ToleranceDegree: 0.9},
	{Level: 5, Resolution: "1280x720", BitrateKbps: 1800, LatencyRequirementMs: 110, ToleranceDegree: 1.0},
}

// Ladder returns the full Table 2 quality ladder, lowest level first.
func Ladder() []Quality {
	out := make([]Quality, NumQualityLevels)
	copy(out, ladder[:])
	return out
}

// QualityFor returns the Quality at the given level.
func QualityFor(level QualityLevel) (Quality, error) {
	if level < 1 || level > NumQualityLevels {
		return Quality{}, fmt.Errorf("quality level %d out of range [1,%d]", level, NumQualityLevels)
	}
	return ladder[level-1], nil
}

// MustQuality returns the Quality at the given level, panicking on an
// out-of-range level. Intended for compile-time-constant levels.
func MustQuality(level QualityLevel) Quality {
	q, err := QualityFor(level)
	if err != nil {
		panic(err)
	}
	return q
}

// BitrateKbps returns the encoding bitrate at the given level — the same
// value as MustQuality(level).BitrateKbps, without copying the rung. It
// panics on an out-of-range level.
func BitrateKbps(level QualityLevel) float64 { return ladder[level-1].BitrateKbps }

// Game is one MMOG title hosted on CloudFog. The paper defines five games,
// one per quality level / latency requirement of Table 2.
type Game struct {
	// ID identifies the game within the catalog.
	ID int
	// Name is a human-readable title.
	Name string
	// DefaultQuality is the game's default (maximum useful) video quality.
	DefaultQuality QualityLevel
	// LatencyRequirementMs is the game's response-latency requirement.
	LatencyRequirementMs float64
	// ToleranceDegree is the game's latency tolerance degree rho.
	ToleranceDegree float64
}

// Quality returns the game's default Quality rung.
func (g Game) Quality() Quality { return ladder[g.DefaultQuality-1] }

// Catalog returns the five games of the paper's experiments: "their quality
// levels and latency requirements are shown in Table 2". Names are
// illustrative genre labels matching the latency requirements (FPS-like
// games need the strictest latency; RPG-like the loosest, per the latency
// studies the paper cites).
func Catalog() []Game {
	names := [NumQualityLevels]string{
		"Arena Duel",      // 30 ms, twitch action
		"Battle Royale",   // 50 ms
		"Raid Frontier",   // 70 ms
		"Guild Realms",    // 90 ms
		"Emerald Kingdom", // 110 ms, slow-paced MMORPG
	}
	games := make([]Game, 0, NumQualityLevels)
	for i, q := range ladder {
		games = append(games, Game{
			ID:                   i + 1,
			Name:                 names[i],
			DefaultQuality:       q.Level,
			LatencyRequirementMs: q.LatencyRequirementMs,
			ToleranceDegree:      q.ToleranceDegree,
		})
	}
	return games
}

// SegmentDurationSec is the duration of one video segment. One-second
// segments at 30 fps are the unit the receiver-driven adaptation buffers.
const SegmentDurationSec = 1.0
