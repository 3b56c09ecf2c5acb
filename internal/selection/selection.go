// Package selection implements the supernode-selection pipeline of §3.2 of
// the CloudFog paper as a shared control plane: candidate filtering by
// transmission delay and capacity, policy ranking (random / per-player
// reputation / global reputation), and sequential capacity probing.
//
// Two consumers delegate to it. The simulator's player-side procedure
// (internal/fog.Selector) runs the full Pipeline against the cloud-side
// registry with modeled RTTs; the networked prototype (internal/fognet)
// uses the same PolicyRanker on both ends of the wire — the cloud ranks the
// failover ladder it pushes to players by its live QoE book, and players
// re-rank it with their measured RTTs before probing. Neither side carries
// its own ranking logic.
package selection

import (
	"fmt"
	"slices"

	"cloudfog/internal/rng"
)

// Candidate is one supernode as seen by the selection pipeline, whichever
// side of the wire it lives on.
type Candidate struct {
	// ID identifies the supernode (simulator endpoint ID, or the cloud's
	// stable per-address ID in the prototype).
	ID int
	// Addr is the supernode's streaming address (prototype only).
	Addr string
	// Load is the current number of attached players.
	Load int
	// Capacity is the advertised max concurrent players; 0 means unknown
	// (the candidate is assumed available).
	Capacity int
	// RTTMs is the measured or modeled round trip to the candidate;
	// negative means unmeasured.
	RTTMs float64
	// Score is the candidate's reputation score. A PolicyRanker with a
	// Scorer overwrites it; otherwise the embedded value ranks.
	Score float64
}

// Available reports whether the candidate advertises a free player slot.
func (c Candidate) Available() bool {
	return c.Capacity <= 0 || c.Load < c.Capacity
}

// Policy selects the ranking rule for delay-qualified candidates.
type Policy int

const (
	// PolicyRandom picks among qualified candidates uniformly (CloudFog/B,
	// the Fig. 10 baseline).
	PolicyRandom Policy = iota + 1
	// PolicyReputation ranks by the player's own reputation book — the
	// paper's sybil-resistant scheme (Eq. 7).
	PolicyReputation
	// PolicyGlobalReputation ranks by a shared global reputation book, the
	// sybil-vulnerable strawman kept as an ablation.
	PolicyGlobalReputation
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRandom:
		return "random"
	case PolicyReputation:
		return "reputation"
	case PolicyGlobalReputation:
		return "global"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "random":
		return PolicyRandom, nil
	case "reputation":
		return PolicyReputation, nil
	case "global":
		return PolicyGlobalReputation, nil
	default:
		return 0, fmt.Errorf("selection: unknown policy %q (want random, reputation, or global)", s)
	}
}

// Scorer scores a supernode's reputation as of a given day.
// *reputation.Book and *reputation.GlobalBook satisfy it.
type Scorer interface {
	Score(supernodeID, today int) float64
}

// PolicyRanker ranks by one of the §3.2 policies. With a Scorer, candidate
// scores are refreshed from it before sorting; without one the embedded
// Candidate.Score values rank (the prototype's player side, which ranks by
// the scores the cloud shipped).
type PolicyRanker struct {
	Policy Policy
	Scorer Scorer
}

// Rank reorders cands in place, best candidate first, using r for the
// tie-break shuffle. Every policy shuffles first so that candidates
// with equal keys — in particular score-0 unknowns — are probed in random
// order: a deterministic tie-break would herd every player onto the same
// supernode. The subsequent sort is stable, preserving the shuffle among
// ties. Candidates without a free slot always sort last: probing them costs
// one RTT for a guaranteed refusal.
func (pr PolicyRanker) Rank(cands []Candidate, today int, r *rng.Rand) {
	if pr.Scorer != nil {
		for i := range cands {
			cands[i].Score = pr.Scorer.Score(cands[i].ID, today)
		}
	}
	if r != nil {
		r.Shuffle(len(cands), func(i, j int) {
			cands[i], cands[j] = cands[j], cands[i]
		})
	}
	byScore := pr.Policy == PolicyReputation || pr.Policy == PolicyGlobalReputation
	slices.SortStableFunc(cands, func(a, b Candidate) int {
		if aa, ab := a.Available(), b.Available(); aa != ab {
			if aa {
				return -1
			}
			return 1
		}
		if byScore {
			// Written as two comparisons, not cmp.Compare, so that a NaN
			// score ties with everything rather than sorting first.
			if a.Score > b.Score {
				return -1
			}
			if a.Score < b.Score {
				return 1
			}
		}
		return 0 // PolicyRandom: shuffle order decides
	})
}

// FilterByDelay returns the candidates whose one-way transmission delay
// RTT/2 is within maxOneWayMs — the L_max filter of §3.2.1 — in a new
// slice; the input is not modified. Unmeasured candidates (negative RTT)
// pass, and a non-positive bound passes every candidate.
func FilterByDelay(cands []Candidate, maxOneWayMs float64) []Candidate {
	return appendQualified(make([]Candidate, 0, len(cands)), cands, maxOneWayMs)
}

// appendQualified appends FilterByDelay's result to dst.
func appendQualified(dst, cands []Candidate, maxOneWayMs float64) []Candidate {
	for _, c := range cands {
		if maxOneWayMs <= 0 || c.RTTMs < 0 || c.RTTMs/2 <= maxOneWayMs {
			dst = append(dst, c)
		}
	}
	return dst
}

// ProbeFunc asks one candidate whether it accepts the player (one RTT of
// sequential probing in §3.2.2); it reports acceptance.
type ProbeFunc func(c Candidate) bool

// Outcome is the result of one selection run, with the counters the
// latency decomposition of Fig. 9 needs.
type Outcome struct {
	// Chosen is the accepted candidate; meaningful only when OK.
	Chosen Candidate
	// OK reports whether any candidate accepted.
	OK bool
	// Candidates is how many candidates passed the delay filter.
	Candidates int
	// Probed is how many candidates were asked before one accepted.
	Probed int
	// PingMs is the parallel delay-test time: the slowest RTT among all
	// fetched candidates (unmeasured ones cost nothing).
	PingMs float64
}

// Pipeline is the full §3.2 procedure: take the cloud's candidate list,
// filter by delay, rank by policy, probe sequentially.
type Pipeline struct {
	// Candidates is the cloud's answer to the player's request (§3.2.1).
	Candidates []Candidate
	Ranker     PolicyRanker
	// Scratch is storage for the delay-qualified list, which Run
	// overwrites; a caller that runs the pipeline often passes the same
	// buffer, with capacity for every candidate, to allocate nothing. It
	// must not share storage with Candidates.
	Scratch []Candidate
}

// Run executes the pipeline. Candidates above the one-way delay bound are
// dropped (FilterByDelay, into Scratch); the rest are ranked and probed in
// order until probe accepts one. A nil probe accepts the first-ranked
// candidate. Candidates itself is not modified.
func (p Pipeline) Run(maxOneWayMs float64, today int, r *rng.Rand, probe ProbeFunc) Outcome {
	out := Outcome{}
	for _, c := range p.Candidates {
		if c.RTTMs > out.PingMs {
			out.PingMs = c.RTTMs // pings run in parallel; slowest dominates
		}
	}
	qualified := appendQualified(p.Scratch[:0], p.Candidates, maxOneWayMs)
	out.Candidates = len(qualified)
	if len(qualified) == 0 {
		return out
	}
	p.Ranker.Rank(qualified, today, r)
	for _, c := range qualified {
		out.Probed++
		if probe == nil || probe(c) {
			out.Chosen = c
			out.OK = true
			return out
		}
	}
	return out
}
