package assignment

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"cloudfog/internal/rng"
	"cloudfog/internal/social"
)

func guildGraph(n int, r *rng.Rand) *social.Graph {
	return social.Generate(social.GenerateConfig{
		N: n, Skew: 1.5, GuildSizeMin: 20, GuildSizeMax: 30,
	}, r)
}

func TestAssignValidation(t *testing.T) {
	g := social.NewGraph(10)
	if _, err := Assign(g, Config{Servers: 0}, rng.New(1)); err == nil {
		t.Error("Servers=0 accepted")
	}
}

func TestAssignIsPartitionProperty(t *testing.T) {
	// Property: every player lands in exactly one community in [0, z).
	f := func(seed uint64, zRaw uint8) bool {
		r := rng.New(seed)
		n := 150
		g := guildGraph(n, r)
		z := int(zRaw%10) + 1
		res, err := Assign(g, Config{Servers: z}, r)
		if err != nil {
			return false
		}
		if len(res.Community) != n {
			return false
		}
		for _, c := range res.Community {
			if c < 0 || c >= z {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAssignBeatsRandom(t *testing.T) {
	r := rng.New(2)
	g := guildGraph(1000, r)
	res, err := Assign(g, Config{Servers: 40}, r)
	if err != nil {
		t.Fatal(err)
	}
	cross := CrossServerFraction(g, res.Community)
	randomCross := CrossServerFraction(g, Random(1000, 40, r))
	if cross >= randomCross {
		t.Fatalf("assignment (%v) no better than random (%v)", cross, randomCross)
	}
	if cross > 0.6 {
		t.Errorf("cross-server fraction %v too high for a guild graph", cross)
	}
	if res.Modularity <= 0 {
		t.Errorf("modularity %v not positive", res.Modularity)
	}
}

func TestRefinementAndPolishImprove(t *testing.T) {
	r := rng.New(3)
	g := guildGraph(800, r)
	full, err := Assign(g, Config{Servers: 30}, r)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Assign(g, Config{Servers: 30, SkipRefinement: true, PolishSweeps: -1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if full.Modularity < greedy.Modularity {
		t.Errorf("refined Γ %v below greedy-only %v", full.Modularity, greedy.Modularity)
	}
	if full.Modularity < full.GreedyModularity {
		t.Errorf("final Γ %v below own greedy Γ %v", full.Modularity, full.GreedyModularity)
	}
}

func TestSwapRefinementNeverDecreasesGamma(t *testing.T) {
	// The Miss/rollback rule guarantees monotone Γ before polishing.
	r := rng.New(4)
	g := guildGraph(500, r)
	res, err := Assign(g, Config{Servers: 20, PolishSweeps: -1, H1: 200, H2: 50}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Modularity < res.GreedyModularity-1e-12 {
		t.Errorf("swap refinement decreased Γ: %v -> %v", res.GreedyModularity, res.Modularity)
	}
	if res.Iterations == 0 {
		t.Error("no refinement iterations ran")
	}
	if res.Misses > res.Iterations {
		t.Error("more misses than iterations")
	}
}

func TestPolishRespectsSizeCap(t *testing.T) {
	r := rng.New(5)
	n, z := 600, 20
	g := guildGraph(n, r)
	res, err := Assign(g, Config{Servers: z, PolishSweeps: 5}, r)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, z)
	for _, c := range res.Community {
		sizes[c]++
	}
	maxAllowed := 3*n/(2*z) + 1 // cap plus the pre-polish slack
	for c, s := range sizes {
		if s > maxAllowed+n/z { // generous: greedy may overfill before polish
			t.Errorf("community %d size %d far above cap %d", c, s, maxAllowed)
		}
	}
}

func TestAssignSingleServer(t *testing.T) {
	r := rng.New(6)
	g := guildGraph(100, r)
	res, err := Assign(g, Config{Servers: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Community {
		if c != 0 {
			t.Fatal("single-server assignment not all zero")
		}
	}
}

func TestAssignEmptyAndTinyGraphs(t *testing.T) {
	r := rng.New(7)
	if res, err := Assign(social.NewGraph(0), Config{Servers: 3}, r); err != nil || len(res.Community) != 0 {
		t.Errorf("empty graph: %v %v", res, err)
	}
	if res, err := Assign(social.NewGraph(1), Config{Servers: 3}, r); err != nil || len(res.Community) != 1 {
		t.Errorf("one-node graph: %v %v", res, err)
	}
	// More servers than players: still a valid partition.
	res, err := Assign(social.NewGraph(2), Config{Servers: 10}, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Community {
		if c < 0 || c >= 10 {
			t.Errorf("invalid community %d", c)
		}
	}
}

func TestRandomPartition(t *testing.T) {
	r := rng.New(8)
	community := Random(500, 7, r)
	if len(community) != 500 {
		t.Fatal("wrong length")
	}
	counts := make([]int, 7)
	for _, c := range community {
		if c < 0 || c >= 7 {
			t.Fatalf("out of range: %d", c)
		}
		counts[c]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Errorf("community %d empty (unlikely for uniform)", c)
		}
	}
}

func TestCrossServerFraction(t *testing.T) {
	g := social.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(0, 2)
	// 0,1 together; 2,3 together: one of three edges crosses.
	got := CrossServerFraction(g, []int{0, 0, 1, 1})
	if got != 1.0/3 {
		t.Errorf("CrossServerFraction = %v, want 1/3", got)
	}
	if CrossServerFraction(social.NewGraph(3), []int{0, 1, 2}) != 0 {
		t.Error("edgeless graph fraction != 0")
	}
}

func TestConfigDefaults(t *testing.T) {
	c, err := Config{Servers: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.H1 != 100 || c.H2 != 10 || c.PolishSweeps != 3 {
		t.Errorf("defaults: %+v", c)
	}
	c, _ = Config{Servers: 2, H1: 5, H2: 50}.withDefaults()
	if c.H2 > c.H1 {
		t.Error("H2 not clamped to H1")
	}
}

func TestAssignDeterministic(t *testing.T) {
	g := guildGraph(400, rng.New(10))
	a, _ := Assign(g, Config{Servers: 16}, rng.New(11))
	b, _ := Assign(g, Config{Servers: 16}, rng.New(11))
	for i := range a.Community {
		if a.Community[i] != b.Community[i] {
			t.Fatal("assignment not deterministic under equal seeds")
		}
	}
}

// polishOracle is the map-per-vertex polish that polish replaced. It
// reports how many times the size cap turned a better community away.
func polishOracle(g *social.Graph, community []int, z, sweeps int) (capped int) {
	n := g.N()
	if n == 0 || z < 2 {
		return 0
	}
	maxSize := 3 * n / (2 * z)
	if maxSize < 2 {
		maxSize = 2
	}
	sizes := make([]int, z)
	for _, c := range community {
		if c >= 0 && c < z {
			sizes[c]++
		}
	}
	for s := 0; s < sweeps; s++ {
		moved := 0
		for i := 0; i < n; i++ {
			counts := make(map[int]int)
			for _, f := range g.Friends(i) {
				counts[community[f]]++
			}
			best, bestN := community[i], counts[community[i]]
			for c, cnt := range counts {
				if c == community[i] {
					continue
				}
				if sizes[c] >= maxSize {
					if cnt > counts[community[i]] {
						capped++
					}
					continue
				}
				if cnt > bestN || (cnt == bestN && c < best) {
					best, bestN = c, cnt
				}
			}
			if best != community[i] {
				sizes[community[i]]--
				sizes[best]++
				community[i] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return capped
}

// swapBallsOracle is the map-returning swapBalls that swapBalls replaced.
func swapBallsOracle(g *social.Graph, community []int, ni, ca, nj, cb int) map[int]int {
	moved := make(map[int]int)
	move := func(p, to int) {
		if _, ok := moved[p]; !ok {
			moved[p] = community[p]
		}
		community[p] = to
	}
	move(ni, cb)
	for _, f := range g.Friends(ni) {
		move(f, cb)
	}
	move(nj, ca)
	for _, f := range g.Friends(nj) {
		move(f, ca)
	}
	return moved
}

// assignOracle is Assign's refinement and polish run through the oracles.
func assignOracle(g *social.Graph, cfg Config, r *rng.Rand) (res *Result, capped int) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		panic(err)
	}
	community := greedySeed(g, cfg.Servers, r)
	res = &Result{Community: community}
	res.GreedyModularity = social.Modularity(g, community, cfg.Servers)
	res.Modularity = res.GreedyModularity
	if cfg.SkipRefinement || cfg.Servers < 2 || g.N() < 2 {
		return res, 0
	}
	gammaPre := res.Modularity
	consecutiveMisses := 0
	for it := 0; it < cfg.H1 && consecutiveMisses < cfg.H2; it++ {
		res.Iterations++
		ca := r.Intn(cfg.Servers)
		cb := r.Intn(cfg.Servers)
		if ca == cb {
			cb = (cb + 1) % cfg.Servers
		}
		ni := randMember(community, ca, r)
		nj := randMember(community, cb, r)
		if ni < 0 || nj < 0 {
			consecutiveMisses++
			res.Misses++
			continue
		}
		moved := swapBallsOracle(g, community, ni, ca, nj, cb)
		gammaCur := social.Modularity(g, community, cfg.Servers)
		if gammaCur > gammaPre {
			gammaPre = gammaCur
			consecutiveMisses = 0
		} else {
			for player, prev := range moved {
				community[player] = prev
			}
			consecutiveMisses++
			res.Misses++
		}
	}
	res.Modularity = gammaPre
	if cfg.PolishSweeps > 0 {
		capped = polishOracle(g, community, cfg.Servers, cfg.PolishSweeps)
		res.Modularity = social.Modularity(g, community, cfg.Servers)
	}
	return res, capped
}

// TestAssignMatchesMapOracle pins Assign to the map-based polish and
// swapBalls bit for bit: same communities, iterations and misses, and the
// same Γ bits, on seeded graphs — one of them with polish's size cap
// binding.
func TestAssignMatchesMapOracle(t *testing.T) {
	cases := []struct {
		name    string
		n, z    int
		seed    uint64
		cfg     social.GenerateConfig
		wantCap bool
		h1, h2  int
	}{
		{name: "guilds", n: 1000, z: 40, seed: 1},
		{name: "big guilds cap binds", n: 600, z: 20, seed: 2, wantCap: true,
			cfg: social.GenerateConfig{Skew: 1.5, GuildSizeMin: 50, GuildSizeMax: 200}},
		{name: "stragglers", n: 997, z: 13, seed: 3, h1: 200, h2: 40},
		{name: "peersim shape", n: 3000, z: 250, seed: 4,
			cfg: social.GenerateConfig{Skew: 1.5}},
		{name: "sparse", n: 400, z: 7, seed: 5,
			cfg: social.GenerateConfig{Skew: 1.5, MaxFriends: 3, InGuildProbability: 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gc := tc.cfg
			if gc.Skew == 0 {
				gc = social.GenerateConfig{Skew: 1.5, GuildSizeMin: 20, GuildSizeMax: 30}
			}
			gc.N = tc.n
			g := social.Generate(gc, rng.New(tc.seed))
			cfg := Config{Servers: tc.z, H1: tc.h1, H2: tc.h2}
			got, err := Assign(g, cfg, rng.New(tc.seed+100))
			if err != nil {
				t.Fatal(err)
			}
			want, capped := assignOracle(g, cfg, rng.New(tc.seed+100))
			if tc.wantCap && capped == 0 {
				t.Fatal("polish's size cap never bound; the case does not test it")
			}
			if !slices.Equal(got.Community, want.Community) {
				t.Error("Community differs from the oracle")
			}
			if got.Iterations != want.Iterations || got.Misses != want.Misses {
				t.Errorf("iterations/misses = %d/%d, oracle %d/%d",
					got.Iterations, got.Misses, want.Iterations, want.Misses)
			}
			if math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) ||
				math.Float64bits(got.GreedyModularity) != math.Float64bits(want.GreedyModularity) {
				t.Errorf("Γ = %v (greedy %v), oracle %v (greedy %v)",
					got.Modularity, got.GreedyModularity, want.Modularity, want.GreedyModularity)
			}
		})
	}
}

// TestGreedySeedLabelsInRange: polish indexes dense per-community arrays by
// label, so greedySeed must leave every player in [0, z), stragglers and
// friendless players included.
func TestGreedySeedLabelsInRange(t *testing.T) {
	for _, tc := range []struct{ n, z int }{{997, 13}, {50, 7}, {10, 40}, {400, 1}} {
		g := social.Generate(social.GenerateConfig{N: tc.n, Skew: 1.5, MaxFriends: 2}, rng.New(uint64(tc.n)))
		for i, c := range greedySeed(g, tc.z, rng.New(9)) {
			if c < 0 || c >= tc.z {
				t.Fatalf("n=%d z=%d: player %d has label %d", tc.n, tc.z, i, c)
			}
		}
	}
}
