package selection

import (
	"math"
	"sort"
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

// rankSliceStable is PolicyRanker.Rank written with sort.SliceStable, as
// the ranker was before it sorted with slices.SortStableFunc: the oracle
// FuzzRankMatchesSliceStable holds Rank to.
func rankSliceStable(pr PolicyRanker, cands []Candidate, today int, r *rng.Rand) {
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
	sort.SliceStable(cands, func(i, j int) bool {
		ai, aj := cands[i].Available(), cands[j].Available()
		if ai != aj {
			return ai
		}
		if byScore {
			return cands[i].Score > cands[j].Score
		}
		return false
	})
}

// scoreFunc adapts a function to Scorer.
type scoreFunc func(id, today int) float64

func (f scoreFunc) Score(id, today int) float64 { return f(id, today) }

// FuzzRankMatchesSliceStable ranks fuzzed candidate lists — few distinct
// scores so ties abound, NaN and signed zeros among them, full and
// unknown-capacity candidates, every policy, with and without a Scorer and
// a shuffle stream — with Rank and with the sort.SliceStable oracle, and
// requires the same order.
func FuzzRankMatchesSliceStable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(1), uint8(0))
	f.Add(make([]byte, 90), uint64(2), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over: the quick brown fox"), uint64(3), uint8(0xff))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, mode uint8) {
		scores := []float64{0, 0.5, 1, math.Copysign(0, -1), math.NaN(), 0.25}
		n := min(len(data)/2, 128)
		cands := make([]Candidate, n)
		for i := range cands {
			a, b := data[2*i], data[2*i+1]
			cands[i] = Candidate{
				ID:       i,
				Score:    scores[int(a)%len(scores)],
				Capacity: int(b % 4), // 0 is unknown: always available
				Load:     int(b>>2) % 5,
			}
		}
		pr := PolicyRanker{Policy: []Policy{PolicyRandom, PolicyReputation, PolicyGlobalReputation}[mode%3]}
		if mode&4 != 0 {
			pr.Scorer = scoreFunc(func(id, today int) float64 {
				return scores[(id*int(seed%7)+today)%len(scores)]
			})
		}
		got := append([]Candidate(nil), cands...)
		want := append([]Candidate(nil), cands...)
		var rGot, rWant *rng.Rand
		if mode&8 != 0 {
			rGot, rWant = rng.New(seed), rng.New(seed)
		}
		pr.Rank(got, int(mode>>4), rGot)
		rankSliceStable(pr, want, int(mode>>4), rWant)
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("policy %v, scorer %v, shuffle %v: position %d is %+v, oracle %+v",
					pr.Policy, pr.Scorer != nil, rGot != nil, i, got[i], want[i])
			}
		}
	})
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
