package social

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cloudfog/internal/rng"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	if g.N() != 4 || g.NumEdges() != 0 {
		t.Fatal("fresh graph malformed")
	}
	if !g.AddEdge(0, 1) {
		t.Error("AddEdge(0,1) failed")
	}
	if g.AddEdge(0, 1) || g.AddEdge(1, 0) {
		t.Error("duplicate edge accepted")
	}
	if g.AddEdge(2, 2) {
		t.Error("self-loop accepted")
	}
	if g.AddEdge(-1, 0) || g.AddEdge(0, 4) {
		t.Error("out-of-range edge accepted")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if g.HasEdge(0, 2) || g.HasEdge(-1, 5) {
		t.Error("phantom edge")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Error("degree wrong")
	}
	if fs := g.Friends(0); len(fs) != 1 || fs[0] != 1 {
		t.Errorf("Friends(0) = %v", fs)
	}
}

func TestGenerateProperties(t *testing.T) {
	g := Generate(GenerateConfig{N: 2000, Skew: 1.5}, rng.New(1))
	if g.N() != 2000 {
		t.Fatalf("N = %d", g.N())
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges generated")
	}
	meanDeg := float64(2*g.NumEdges()) / 2000
	if meanDeg < 2 || meanDeg > 20 {
		t.Errorf("mean degree %v implausible", meanDeg)
	}
	// Power-law: some players must have far more friends than the mean.
	maxDeg := 0
	for i := 0; i < 2000; i++ {
		if d := g.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 3*meanDeg {
		t.Errorf("degree distribution lacks a tail: max %d mean %v", maxDeg, meanDeg)
	}
}

func TestGenerateGuildsAreCommunities(t *testing.T) {
	// The planted guild structure must make a guild-aligned partition far
	// more modular than a random one.
	r := rng.New(2)
	cfg := GenerateConfig{N: 1000, Skew: 1.5, GuildSizeMin: 20, GuildSizeMax: 20}
	g := Generate(cfg, r)
	guildOf := make([]int, 1000)
	for i := range guildOf {
		guildOf[i] = i / 20
	}
	z := 50
	guildGamma := Modularity(g, guildOf, z)
	random := make([]int, 1000)
	for i := range random {
		random[i] = r.Intn(z)
	}
	randomGamma := Modularity(g, random, z)
	if guildGamma < 0.4 {
		t.Errorf("guild partition modularity %v too low", guildGamma)
	}
	if guildGamma <= randomGamma+0.2 {
		t.Errorf("guild partition (%v) not clearly better than random (%v)", guildGamma, randomGamma)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenerateConfig{N: 300}, rng.New(9))
	b := Generate(GenerateConfig{N: 300}, rng.New(9))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := 0; i < 300; i++ {
		if a.Degree(i) != b.Degree(i) {
			t.Fatalf("degrees differ at %d", i)
		}
	}
}

func TestGenerateTiny(t *testing.T) {
	if g := Generate(GenerateConfig{N: 0}, rng.New(1)); g.N() != 0 {
		t.Error("empty graph mishandled")
	}
	if g := Generate(GenerateConfig{N: 1}, rng.New(1)); g.NumEdges() != 0 {
		t.Error("single-node graph has edges")
	}
	g := Generate(GenerateConfig{N: 2}, rng.New(1))
	if g.N() != 2 {
		t.Error("two-node graph malformed")
	}
}

func TestModularityBoundsProperty(t *testing.T) {
	// Property: modularity of any partition lies in [-1, 1].
	f := func(seed uint64, zRaw uint8) bool {
		r := rng.New(seed)
		g := Generate(GenerateConfig{N: 120}, r)
		z := int(zRaw%12) + 1
		community := make([]int, 120)
		for i := range community {
			community[i] = r.Intn(z)
		}
		gamma := Modularity(g, community, z)
		return gamma >= -1-1e-9 && gamma <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestModularitySingleCommunityIsZero(t *testing.T) {
	g := Generate(GenerateConfig{N: 100}, rng.New(3))
	community := make([]int, 100) // all zeros
	// tr(Q)=1, ||Q^2|| = 1 -> Γ = 0 for the trivial partition.
	if gamma := Modularity(g, community, 1); math.Abs(gamma) > 1e-9 {
		t.Errorf("single-community modularity = %v, want 0", gamma)
	}
}

func TestModularityEdgeCases(t *testing.T) {
	g := NewGraph(5)
	if Modularity(g, make([]int, 5), 2) != 0 {
		t.Error("edgeless graph modularity != 0")
	}
	g.AddEdge(0, 1)
	if Modularity(g, []int{0, 0, 1, 1, 1}, 0) != 0 {
		t.Error("z=0 modularity != 0")
	}
	// Out-of-range community labels are skipped, not panicking.
	_ = Modularity(g, []int{-1, 7, 0, 0, 0}, 2)
}

func TestModularityPerfectSplit(t *testing.T) {
	// Two disconnected cliques split into their own communities: Γ = 1/2
	// for equal halves (1 - sum p_a^2 = 1 - 2*(1/2)^2).
	g := NewGraph(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
			g.AddEdge(i+4, j+4)
		}
	}
	community := []int{0, 0, 0, 0, 1, 1, 1, 1}
	if gamma := Modularity(g, community, 2); math.Abs(gamma-0.5) > 1e-9 {
		t.Errorf("perfect split modularity = %v, want 0.5", gamma)
	}
}

func TestCoPlayRecorder(t *testing.T) {
	c := NewCoPlayRecorder(2, 7)
	c.Record(1, 2, 0)
	c.Record(2, 1, 1) // symmetric pair key
	c.Record(1, 2, 2)
	if got := c.CoPlayCount(1, 2, 3); got != 3 {
		t.Errorf("CoPlayCount = %d", got)
	}
	if got := c.CoPlayCount(2, 1, 3); got != 3 {
		t.Errorf("CoPlayCount not symmetric: %d", got)
	}
	if !c.ImplicitFriends(1, 2, 3) {
		t.Error("3 > 2 co-plays should be implicit friends")
	}
	// Outside the window the events age out.
	if c.ImplicitFriends(1, 2, 20) {
		t.Error("stale co-plays still counted")
	}
	c.Record(3, 3, 0) // self-records ignored
	if c.CoPlayCount(3, 3, 0) != 0 {
		t.Error("self co-play recorded")
	}
}

func TestCoPlayDefaults(t *testing.T) {
	c := NewCoPlayRecorder(0, 0)
	if c.Threshold != 3 || c.WindowDays != 7 {
		t.Errorf("defaults: %d, %d", c.Threshold, c.WindowDays)
	}
}

func TestCoPlayPrune(t *testing.T) {
	c := NewCoPlayRecorder(1, 7)
	c.Record(1, 2, 0)
	c.Record(1, 2, 10)
	c.Prune(12)
	if got := c.CoPlayCount(1, 2, 12); got != 1 {
		t.Errorf("after prune count = %d", got)
	}
}

func TestAugmentGraph(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	c := NewCoPlayRecorder(2, 7)
	for day := 0; day < 3; day++ {
		c.Record(2, 3, day)
	}
	c.Record(3, 4, 0) // below threshold
	aug := c.AugmentGraph(g, 3)
	if !aug.HasEdge(0, 1) {
		t.Error("explicit friendship lost")
	}
	if !aug.HasEdge(2, 3) {
		t.Error("implicit friendship not added")
	}
	if aug.HasEdge(3, 4) {
		t.Error("sub-threshold pair became friends")
	}
	if g.HasEdge(2, 3) {
		t.Error("AugmentGraph mutated the original")
	}
}

// mapGraph is the map-per-vertex graph Graph replaced, kept as the oracle
// for the sorted-adjacency form.
type mapGraph struct {
	n   int
	adj []map[int]struct{}
	m   int
}

func newMapGraph(n int) *mapGraph {
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	return &mapGraph{n: n, adj: adj}
}

func (g *mapGraph) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	if _, ok := g.adj[u][v]; ok {
		return false
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.m++
	return true
}

func (g *mapGraph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

func (g *mapGraph) Friends(i int) []int {
	out := make([]int, 0, len(g.adj[i]))
	for v := range g.adj[i] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// augment is AugmentGraph over the oracle: re-add every edge, then the
// recorder's implicit friendships.
func (g *mapGraph) augment(c *CoPlayRecorder, today int) *mapGraph {
	out := newMapGraph(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Friends(u) {
			if u < v {
				out.AddEdge(u, v)
			}
		}
	}
	for k := range c.counts {
		if c.ImplicitFriends(k[0], k[1], today) {
			out.AddEdge(k[0], k[1])
		}
	}
	return out
}

// sameGraph fails t unless g and o hold the same edges, degrees and count.
func sameGraph(t *testing.T, g *Graph, o *mapGraph) {
	t.Helper()
	if g.N() != o.n || g.NumEdges() != o.m {
		t.Fatalf("N/NumEdges = %d/%d, oracle %d/%d", g.N(), g.NumEdges(), o.n, o.m)
	}
	for i := 0; i < o.n; i++ {
		if g.Degree(i) != len(o.adj[i]) {
			t.Fatalf("Degree(%d) = %d, oracle %d", i, g.Degree(i), len(o.adj[i]))
		}
		if got, want := g.Friends(i), o.Friends(i); !slices.Equal(got, want) {
			t.Fatalf("Friends(%d) = %v, oracle %v", i, got, want)
		}
	}
}

// FuzzGraphMatchesMapOracle replays a random op sequence on Graph and on
// the map-based oracle — AddEdge (self-loops, duplicates and out-of-range
// IDs included), HasEdge, co-play records and AugmentGraph — and requires
// every answer and the full adjacency to agree after each op.
func FuzzGraphMatchesMapOracle(f *testing.F) {
	f.Add(uint8(5), []byte{0, 0, 1, 0, 1, 0, 0, 2, 2, 1, 0, 1, 3, 2, 3, 3, 2, 3, 3, 3, 2, 4, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 255, 3, 1, 0, 200})
	f.Add(uint8(40), []byte{0, 39, 0, 0, 0, 39, 0, 38, 39, 1, 39, 38, 4, 0, 0, 0, 5, 6})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := int(size % 48)
		g, o := NewGraph(n), newMapGraph(n)
		rec := NewCoPlayRecorder(1, 7)
		// id maps a byte onto [-2, n+2): in range mostly, out of range on
		// both sides sometimes.
		id := func(b byte) int { return int(b)%(n+4) - 2 }
		for len(ops) >= 3 {
			op, a, b := ops[0], id(ops[1]), id(ops[2])
			ops = ops[3:]
			switch op % 4 {
			case 0:
				if got, want := g.AddEdge(a, b), o.AddEdge(a, b); got != want {
					t.Fatalf("AddEdge(%d, %d) = %v, oracle %v", a, b, got, want)
				}
			case 1:
				if got, want := g.HasEdge(a, b), o.HasEdge(a, b); got != want {
					t.Fatalf("HasEdge(%d, %d) = %v, oracle %v", a, b, got, want)
				}
			case 2:
				rec.Record(a, b, int(op/4)%3)
			case 3:
				today := int(op/4) % 9
				ag, ao := rec.AugmentGraph(g, today), o.augment(rec, today)
				sameGraph(t, g, o) // the original is left alone
				g, o = ag, ao
			}
			sameGraph(t, g, o)
		}
	})
}

func TestFriendsDoesNotAllocate(t *testing.T) {
	g := Generate(GenerateConfig{N: 500, Skew: 1.5}, rng.New(3))
	var sum int
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < g.N(); i++ {
			sum += len(g.Friends(i))
		}
	})
	if allocs != 0 {
		t.Errorf("Friends allocates %v times per sweep, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("graph has no edges")
	}
}
