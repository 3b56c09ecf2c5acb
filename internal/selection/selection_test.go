package selection

import (
	"math"
	"testing"

	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
)

func candN(n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{ID: 100 + i, Capacity: 4, RTTMs: float64(10 + i)}
	}
	return out
}

func TestPolicyStringAndParse(t *testing.T) {
	for _, p := range []Policy{PolicyRandom, PolicyReputation, PolicyGlobalReputation} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("alphabetical"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestAvailable(t *testing.T) {
	if (Candidate{Load: 4, Capacity: 4}).Available() {
		t.Error("full candidate reported available")
	}
	if !(Candidate{Load: 3, Capacity: 4}).Available() {
		t.Error("free candidate reported unavailable")
	}
	// Unknown capacity is treated as available — the probe decides.
	if !(Candidate{Load: 99, Capacity: 0}).Available() {
		t.Error("unknown-capacity candidate reported unavailable")
	}
}

func TestRankReputationScorerWins(t *testing.T) {
	book := reputation.NewBook(0.9)
	book.Rate(105, 0.95, 0)
	cands := candN(8)
	PolicyRanker{Policy: PolicyReputation, Scorer: book}.Rank(cands, 0, rng.New(1))
	if cands[0].ID != 105 {
		t.Errorf("rated candidate not ranked first: %+v", cands[0])
	}
}

func TestRankShufflesTies(t *testing.T) {
	// All scores equal: the first-ranked candidate must vary with the
	// stream, or every player herds onto the same supernode. This is the
	// regression surface of the global-reputation tie-break fix.
	for _, policy := range []Policy{PolicyRandom, PolicyReputation, PolicyGlobalReputation} {
		seen := map[int]bool{}
		for seed := uint64(0); seed < 32; seed++ {
			cands := candN(8)
			PolicyRanker{Policy: policy}.Rank(cands, 0, rng.New(seed))
			seen[cands[0].ID] = true
		}
		if len(seen) < 3 {
			t.Errorf("policy %v: ties not shuffled, first candidates %v", policy, seen)
		}
	}
}

func TestRankFullCandidatesSortLast(t *testing.T) {
	book := reputation.NewBook(0.9)
	book.Rate(100, 1.0, 0) // best score, but full
	cands := candN(4)
	cands[0].Load = cands[0].Capacity
	PolicyRanker{Policy: PolicyReputation, Scorer: book}.Rank(cands, 0, rng.New(7))
	if cands[len(cands)-1].ID != 100 {
		t.Errorf("full candidate not ranked last: %+v", cands)
	}
}

func TestRankEmbeddedScoresWithoutScorer(t *testing.T) {
	cands := candN(5)
	cands[3].Score = 0.9 // e.g. shipped by the cloud in CandidateInfo
	PolicyRanker{Policy: PolicyReputation}.Rank(cands, 0, rng.New(3))
	if cands[0].ID != 103 {
		t.Errorf("embedded score ignored: %+v", cands[0])
	}
}

func TestFilterByDelay(t *testing.T) {
	cands := candN(5) // RTTs 10..14
	cands[4].RTTMs = -1
	got := FilterByDelay(cands, 6) // keeps RTT <= 12 and the unmeasured one
	if len(got) != 4 {
		t.Fatalf("filtered to %d candidates: %+v", len(got), got)
	}
	for _, c := range got {
		if c.RTTMs > 12 {
			t.Errorf("candidate above the delay bound survived: %+v", c)
		}
	}
	if got := FilterByDelay(cands, 0); len(got) != len(cands) {
		t.Errorf("a zero bound filtered to %d of %d candidates", len(got), len(cands))
	}
}

func TestPipelineProbesSequentially(t *testing.T) {
	cands := candN(6)
	probed := []int{}
	out := Pipeline{Candidates: cands, Ranker: PolicyRanker{Policy: PolicyRandom}}.
		Run(100, 0, rng.New(9), func(c Candidate) bool {
			probed = append(probed, c.ID)
			return len(probed) == 3 // first two refuse
		})
	if !out.OK || out.Probed != 3 || len(probed) != 3 || out.Chosen.ID != probed[2] {
		t.Errorf("sequential probing broken: %+v probed=%v", out, probed)
	}
	if math.Abs(out.PingMs-15) > 1e-12 { // slowest fetched RTT dominates
		t.Errorf("PingMs = %v, want 15", out.PingMs)
	}
}

func TestPipelineAllRefuse(t *testing.T) {
	out := Pipeline{Candidates: candN(3), Ranker: PolicyRanker{Policy: PolicyRandom}}.
		Run(100, 0, rng.New(2), func(Candidate) bool { return false })
	if out.OK || out.Probed != 3 {
		t.Errorf("refusal run: %+v", out)
	}
}

func TestPipelineDelayFilterEmpty(t *testing.T) {
	out := Pipeline{Candidates: candN(3), Ranker: PolicyRanker{Policy: PolicyRandom}}.
		Run(1, 0, rng.New(2), nil) // every RTT/2 > 1ms
	if out.OK || out.Candidates != 0 {
		t.Errorf("delay filter leaked: %+v", out)
	}
	if out.PingMs == 0 {
		t.Error("parallel ping cost not accounted for unqualified candidates")
	}
}

func BenchmarkRank(b *testing.B) {
	book := reputation.NewBook(0.9)
	for i := 0; i < 16; i++ {
		book.Rate(100+i, 0.5+float64(i)/64, 0)
	}
	r := rng.New(42)
	base := candN(64)
	cands := make([]Candidate, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(cands, base)
		PolicyRanker{Policy: PolicyReputation, Scorer: book}.Rank(cands, 0, r)
	}
}
