// Package reputation implements the reputation-based supernode selection
// strategy of §3.2 of the CloudFog paper.
//
// Each player keeps its OWN ratings of the supernodes that served it — no
// opinions are gathered from other players, which makes the scheme immune
// to sybil attacks and collusion (a design decision the paper motivates
// explicitly). After each gaming session the player rates the supernode
// with the observed playback continuity; the overall score is the
// age-weighted average of Eq. 7:
//
//	s_ij = (1/N_r) * sum_k  r_k * lambda^(d_k)
//
// where r_k is the k-th rating, d_k its age in days, and lambda in (0, 1)
// the aging factor, so recent interactions dominate.
//
// Book and GlobalBook are safe for concurrent use: the simulator drives
// them single-threaded, but the fognet prototype's cloud rates supernodes
// from concurrent player connections.
package reputation

import (
	"math"
	"sync"
)

// Rating is one playback-continuity rating a player gave a supernode.
type Rating struct {
	// Value is the rating in [0, 1] (the session's playback continuity).
	Value float64
	// Day is the simulation day (cycle) the rating was recorded on.
	Day int
}

// Book is one player's private reputation ledger over supernodes.
// The zero value is not usable; create with NewBook.
type Book struct {
	mu      sync.RWMutex
	lambda  float64
	ratings map[int][]Rating // supernode ID -> ratings, oldest first; guarded by mu
}

// DefaultLambda is the default aging factor. The paper leaves λ ∈ (0,1);
// 0.9 gives a ~7-day half-life matching the weekly play patterns it models.
const DefaultLambda = 0.9

// NewBook creates a reputation book with aging factor lambda. Lambda is
// clamped into (0, 1): values outside default to DefaultLambda.
func NewBook(lambda float64) *Book {
	if lambda <= 0 || lambda >= 1 {
		lambda = DefaultLambda
	}
	return &Book{lambda: lambda, ratings: make(map[int][]Rating)}
}

// Lambda returns the aging factor in use.
func (b *Book) Lambda() float64 { return b.lambda }

// Rate records a rating of the given supernode. Values are clamped to
// [0, 1].
func (b *Book) Rate(supernodeID int, value float64, day int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ratings[supernodeID] = append(b.ratings[supernodeID], Rating{Value: clamp01(value), Day: day})
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// score computes Eq. 7 over a rating list.
func score(rs []Rating, lambda float64, today int) float64 {
	if len(rs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rs {
		age := today - r.Day
		if age < 0 {
			age = 0
		}
		sum += r.Value * math.Pow(lambda, float64(age))
	}
	return sum / float64(len(rs))
}

// Score returns the overall reputation score s_ij of the supernode as seen
// from this book on the given day (Eq. 7). Supernodes with no prior
// interactions score 0, per the paper.
func (b *Book) Score(supernodeID int, today int) float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return score(b.ratings[supernodeID], b.lambda, today)
}

// Prune discards ratings older than maxAgeDays as of today, bounding memory
// for long-lived players. Ratings aged beyond the horizon contribute
// lambda^age ~ 0 anyway.
func (b *Book) Prune(today, maxAgeDays int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, rs := range b.ratings {
		kept := rs[:0]
		for _, r := range rs {
			if today-r.Day <= maxAgeDays {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			delete(b.ratings, id)
		} else {
			b.ratings[id] = kept
		}
	}
}

// GlobalBook aggregates ratings from ALL players, the strawman scheme the
// paper rejects as vulnerable to sybil attacks and collusion. It is kept as
// an ablation baseline (see DESIGN.md §6) and reused by the fognet cloud,
// whose ladder ranking aggregates every player's QoE reports by design.
type GlobalBook struct {
	mu      sync.RWMutex
	lambda  float64
	ratings map[int][]Rating // guarded by mu
}

// NewGlobalBook creates a global reputation aggregator with the given aging
// factor (clamped like NewBook).
func NewGlobalBook(lambda float64) *GlobalBook {
	if lambda <= 0 || lambda >= 1 {
		lambda = DefaultLambda
	}
	return &GlobalBook{lambda: lambda, ratings: make(map[int][]Rating)}
}

// Rate records a rating of a supernode by any player.
func (g *GlobalBook) Rate(supernodeID int, value float64, day int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ratings[supernodeID] = append(g.ratings[supernodeID], Rating{Value: clamp01(value), Day: day})
}

// Score returns the aggregate age-weighted score of the supernode.
func (g *GlobalBook) Score(supernodeID int, today int) float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return score(g.ratings[supernodeID], g.lambda, today)
}

// NumRatings returns how many ratings the book holds for the supernode.
func (g *GlobalBook) NumRatings(supernodeID int) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.ratings[supernodeID])
}
