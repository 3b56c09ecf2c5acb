// Package social models the player social network of the CloudFog paper:
// explicit in-game friendships, implicit friendships inferred from co-play
// records, and the Newman–Girvan modularity measure (Eq. 13) that the
// social-network-based server assignment optimizes.
package social

import (
	"slices"

	"cloudfog/internal/rng"
)

// Graph is an undirected friendship graph over players 0..N-1. Each
// player's friend list is kept sorted ascending, so lookups binary-search
// and Friends hands out the stored list without copying or sorting.
type Graph struct {
	n   int
	adj [][]int
	m   int // number of edges
}

// NewGraph creates an empty graph over n players.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of players.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// AddEdge adds an undirected friendship edge. Self-loops and duplicates are
// ignored. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	i, found := slices.BinarySearch(g.adj[u], v)
	if found {
		return false
	}
	g.adj[u] = slices.Insert(g.adj[u], i, v)
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[v] = slices.Insert(g.adj[v], j, u)
	g.m++
	return true
}

// HasEdge reports whether u and v are friends.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	_, found := slices.BinarySearch(g.adj[u], v)
	return found
}

// Friends returns F(i): the friend set of player i, in ascending ID order.
// The deterministic order matters: simulation results must be reproducible
// from a seed. The slice is the graph's own storage, valid until the next
// AddEdge; callers must not modify it.
func (g *Graph) Friends(i int) []int { return g.adj[i] }

// Degree returns the number of friends of player i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// GenerateConfig controls synthetic friendship graph generation.
type GenerateConfig struct {
	// N is the number of players.
	N int
	// MaxFriends bounds the per-player friend count sampled from the
	// power law. Defaults to 50.
	MaxFriends int
	// Skew is the power-law skew factor. The paper uses 1.5.
	Skew float64
	// GuildSizeMin / GuildSizeMax bound the planted guild sizes. MMOG
	// friendships concentrate inside guilds/clans, the community
	// structure the social-network-based server assignment exploits.
	// Defaults: 15 and 50.
	GuildSizeMin int
	GuildSizeMax int
	// InGuildProbability is the chance a friendship edge stays inside the
	// player's guild. Defaults to 0.8.
	InGuildProbability float64
}

func (c GenerateConfig) withDefaults() GenerateConfig {
	if c.MaxFriends <= 0 {
		c.MaxFriends = 50
	}
	if c.Skew <= 0 {
		c.Skew = 1.5
	}
	if c.GuildSizeMin <= 0 {
		c.GuildSizeMin = 15
	}
	if c.GuildSizeMax < c.GuildSizeMin {
		c.GuildSizeMax = c.GuildSizeMin + 35
	}
	if c.InGuildProbability <= 0 || c.InGuildProbability > 1 {
		c.InGuildProbability = 0.8
	}
	return c
}

// Generate builds a friendship graph where "the number of friends for each
// player follows power-law distribution with skew factor of 1.5", planted
// over a guild structure: most edges stay within a player's guild, a
// minority cross guilds. Guilds give the graph the community structure
// that real MMOG populations exhibit ("social friends always play
// together") and that the server assignment mines.
func Generate(cfg GenerateConfig, r *rng.Rand) *Graph {
	cfg = cfg.withDefaults()
	g := NewGraph(cfg.N)
	if cfg.N < 2 {
		return g
	}
	// Partition players into guilds of random size.
	guildOf := make([]int, cfg.N)
	var guilds [][]int
	for start := 0; start < cfg.N; {
		size := cfg.GuildSizeMin
		if cfg.GuildSizeMax > cfg.GuildSizeMin {
			size += r.Intn(cfg.GuildSizeMax - cfg.GuildSizeMin + 1)
		}
		end := start + size
		if end > cfg.N {
			end = cfg.N
		}
		members := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			guildOf[i] = len(guilds)
			members = append(members, i)
		}
		guilds = append(guilds, members)
		start = end
	}

	targets := make([]int, cfg.N)
	for i := range targets {
		targets[i] = r.Zipf(cfg.MaxFriends, cfg.Skew)
	}
	for i := 0; i < cfg.N; i++ {
		attempts := 0
		for g.Degree(i) < targets[i] && attempts < 8*targets[i]+16 {
			attempts++
			var v int
			if r.Bool(cfg.InGuildProbability) {
				members := guilds[guildOf[i]]
				v = members[r.Intn(len(members))]
			} else {
				v = r.Intn(cfg.N)
			}
			if v == i || g.HasEdge(i, v) {
				continue
			}
			g.AddEdge(i, v)
		}
	}
	return g
}

// CoPlayRecorder tracks how often pairs of players play together within a
// sliding window, implementing the paper's implicit-friendship rule: when
// two players co-play more than Threshold times within the recent week,
// they are regarded as implicit friends.
type CoPlayRecorder struct {
	// Threshold is υ, the co-play count above which an implicit
	// friendship is declared.
	Threshold int
	// WindowDays is the sliding window length (the paper uses one week).
	WindowDays int

	counts map[[2]int][]int // pair -> days of co-play events
}

// NewCoPlayRecorder creates a recorder with the given threshold and window.
// Non-positive arguments default to threshold 3 and a 7-day window.
func NewCoPlayRecorder(threshold, windowDays int) *CoPlayRecorder {
	if threshold <= 0 {
		threshold = 3
	}
	if windowDays <= 0 {
		windowDays = 7
	}
	return &CoPlayRecorder{
		Threshold:  threshold,
		WindowDays: windowDays,
		counts:     make(map[[2]int][]int),
	}
}

func pairKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// Record notes that u and v played together on the given day.
func (c *CoPlayRecorder) Record(u, v, day int) {
	if u == v {
		return
	}
	k := pairKey(u, v)
	c.counts[k] = append(c.counts[k], day)
}

// CoPlayCount returns CP_uv: how many co-play events fall within the window
// ending today.
func (c *CoPlayRecorder) CoPlayCount(u, v, today int) int {
	var n int
	for _, d := range c.counts[pairKey(u, v)] {
		if today-d < c.WindowDays && today-d >= 0 {
			n++
		}
	}
	return n
}

// ImplicitFriends reports whether u and v qualify as implicit friends as of
// today (CP_uv > Threshold within the window).
func (c *CoPlayRecorder) ImplicitFriends(u, v, today int) bool {
	return c.CoPlayCount(u, v, today) > c.Threshold
}

// AugmentGraph returns a copy of g with implicit-friendship edges added for
// every recorded pair exceeding the threshold as of today.
func (c *CoPlayRecorder) AugmentGraph(g *Graph, today int) *Graph {
	out := &Graph{n: g.n, adj: make([][]int, g.n), m: g.m}
	for u, fs := range g.adj {
		out.adj[u] = slices.Clone(fs)
	}
	for k := range c.counts {
		if c.ImplicitFriends(k[0], k[1], today) {
			out.AddEdge(k[0], k[1])
		}
	}
	return out
}

// Prune discards co-play events older than the window as of today.
func (c *CoPlayRecorder) Prune(today int) {
	for k, days := range c.counts {
		kept := days[:0]
		for _, d := range days {
			if today-d < c.WindowDays {
				kept = append(kept, d)
			}
		}
		if len(kept) == 0 {
			delete(c.counts, k)
		} else {
			c.counts[k] = kept
		}
	}
}

// Modularity computes the Newman–Girvan modularity Γ (Eq. 13) of a
// partition of the graph's players into communities. community[i] is the
// community index of player i, in [0, z). Higher Γ means friends are more
// concentrated within communities. Returns 0 for a graph without edges.
func Modularity(g *Graph, community []int, z int) float64 {
	if g.NumEdges() == 0 || z <= 0 {
		return 0
	}
	// q[a][b]: fraction of edge endpoints connecting communities a and b.
	intra := make([]float64, z)  // q_aa
	degSum := make([]float64, z) // p_a = sum_b q_ab, via endpoint counting
	m2 := float64(2 * g.NumEdges())
	for u := 0; u < g.N(); u++ {
		cu := community[u]
		if cu < 0 || cu >= z {
			continue
		}
		for _, v := range g.Friends(u) {
			cv := community[v]
			if cv < 0 || cv >= z {
				continue
			}
			degSum[cu] += 1 / m2
			if cu == cv {
				// Each intra edge is visited twice (u->v and v->u).
				intra[cu] += 1 / m2
			}
		}
	}
	var gamma float64
	for a := 0; a < z; a++ {
		gamma += intra[a] - degSum[a]*degSum[a]
	}
	return gamma
}
