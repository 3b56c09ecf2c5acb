// Package assignment implements the social-network-based server assignment
// strategy of §3.4 of the CloudFog paper.
//
// Players that interact in-game force their servers to exchange game state,
// adding server-communication latency to the response path. The strategy
// partitions players into z communities (one per server in a datacenter) so
// that friends — who tend to play together — land on the same server. The
// algorithm is the paper's: greedy friend-ball seeding (steps 1–4) followed
// by randomized swap refinement guided by modularity Γ (steps 5–6), stopped
// after h1 iterations or h2 consecutive misses.
package assignment

import (
	"fmt"

	"cloudfog/internal/rng"
	"cloudfog/internal/social"
)

// Config parameterizes the assignment algorithm.
type Config struct {
	// Servers is z, the number of servers (communities). Must be >= 1.
	Servers int
	// H1 is the maximum number of swap-refinement iterations. Defaults to
	// the paper's 100.
	H1 int
	// H2 is the consecutive-miss stop threshold (h2 < h1). Defaults to
	// the paper's 10.
	H2 int
	// SkipRefinement disables the swap-refinement phase (the greedy-only
	// ablation).
	SkipRefinement bool
	// PolishSweeps is the number of size-capped label-propagation sweeps
	// run after the paper's swap refinement: each sweep lets every player
	// follow its friend-majority community if that community has room.
	// This is an extension over the paper's algorithm (see DESIGN.md §6);
	// 0 uses the default of 3, negative disables polishing.
	PolishSweeps int
}

func (c Config) withDefaults() (Config, error) {
	if c.Servers < 1 {
		return c, fmt.Errorf("assignment: Servers must be >= 1, got %d", c.Servers)
	}
	if c.H1 <= 0 {
		c.H1 = 100
	}
	if c.H2 <= 0 {
		c.H2 = 10
	}
	if c.H2 > c.H1 {
		c.H2 = c.H1
	}
	if c.PolishSweeps == 0 {
		c.PolishSweeps = 3
	}
	return c, nil
}

// Result is the outcome of an assignment run.
type Result struct {
	// Community maps each player to its server index in [0, Servers).
	Community []int
	// Modularity is the final Γ of the partition.
	Modularity float64
	// GreedyModularity is Γ after the greedy phase, before refinement.
	GreedyModularity float64
	// Iterations is how many swap iterations ran.
	Iterations int
	// Misses is how many swap iterations were rolled back.
	Misses int
}

// Assign partitions the players of g into cfg.Servers communities using the
// paper's algorithm and returns the final assignment.
func Assign(g *social.Graph, cfg Config, r *rng.Rand) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := g.N()
	community := greedySeed(g, cfg.Servers, r)
	res := &Result{Community: community}
	res.GreedyModularity = social.Modularity(g, community, cfg.Servers)
	res.Modularity = res.GreedyModularity
	if cfg.SkipRefinement || cfg.Servers < 2 || n < 2 {
		return res, nil
	}

	// Step 5–6: randomized swap refinement.
	gammaPre := res.Modularity
	consecutiveMisses := 0
	var moves []move
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
		// Swap the communities of n_i + F(i) and n_j + F(j).
		moves = swapBalls(g, community, ni, ca, nj, cb, moves[:0])
		gammaCur := social.Modularity(g, community, cfg.Servers)
		if gammaCur > gammaPre {
			gammaPre = gammaCur
			consecutiveMisses = 0
		} else {
			// Miss: roll back, newest move first, so a player moved twice
			// ends where it started.
			for k := len(moves) - 1; k >= 0; k-- {
				community[moves[k].player] = moves[k].from
			}
			consecutiveMisses++
			res.Misses++
		}
	}
	res.Modularity = gammaPre
	if cfg.PolishSweeps > 0 {
		polish(g, community, cfg.Servers, cfg.PolishSweeps)
		res.Modularity = social.Modularity(g, community, cfg.Servers)
	}
	return res, nil
}

// polish runs size-capped label propagation: each player follows its
// friend-majority community when that community is below 150% of the
// average size. The cap prevents the propagation from collapsing everyone
// onto a handful of servers (servers have finite capacity). Every label in
// community must lie in [0, z).
func polish(g *social.Graph, community []int, z, sweeps int) {
	n := g.N()
	if n == 0 || z < 2 {
		return
	}
	maxSize := 3 * n / (2 * z)
	if maxSize < 2 {
		maxSize = 2
	}
	sizes := make([]int, z)
	for _, c := range community {
		sizes[c]++
	}
	// Friend counts per community, dense, with a touched list so clearing
	// costs O(friends) rather than O(z).
	counts := make([]int, z)
	var touched []int
	for s := 0; s < sweeps; s++ {
		moved := 0
		for i := 0; i < n; i++ {
			touched = touched[:0]
			for _, f := range g.Friends(i) {
				c := community[f]
				if counts[c] == 0 {
					touched = append(touched, c)
				}
				counts[c]++
			}
			// Winner: most friends, smallest community on ties — a strict
			// total order, so the scan order does not matter.
			best, bestN := community[i], counts[community[i]]
			for _, c := range touched {
				cnt := counts[c]
				counts[c] = 0
				if c == community[i] || sizes[c] >= maxSize {
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
}

// greedySeed implements steps 1–4: repeatedly seed a community with a random
// unassigned player and grow it by pulling in members' friends until it
// reaches |V|/z, then move to the next community. Any stragglers join the
// smallest community.
func greedySeed(g *social.Graph, z int, r *rng.Rand) []int {
	n := g.N()
	community := make([]int, n)
	for i := range community {
		community[i] = -1
	}
	if n == 0 {
		return community
	}
	target := n / z
	if target < 1 {
		target = 1
	}
	unassigned := r.Perm(n)
	next := 0
	takeNext := func() int {
		for next < len(unassigned) {
			p := unassigned[next]
			next++
			if community[p] < 0 {
				return p
			}
		}
		return -1
	}
	for c := 0; c < z; c++ {
		seed := takeNext()
		if seed < 0 {
			break
		}
		members := []int{seed}
		community[seed] = c
		// Pull in the seed's friends, then friends-of-members, until the
		// community reaches the target size.
		frontier := 0
		for len(members) < target {
			if frontier >= len(members) {
				// Ball exhausted before reaching target: seed again from
				// the unassigned pool.
				p := takeNext()
				if p < 0 {
					break
				}
				community[p] = c
				members = append(members, p)
				continue
			}
			p := members[frontier]
			frontier++
			for _, f := range g.Friends(p) {
				if community[f] < 0 {
					community[f] = c
					members = append(members, f)
					if len(members) >= target {
						break
					}
				}
			}
		}
	}
	// Stragglers (left over after the last community filled): each joins
	// the community holding most of its friends, falling back to
	// round-robin for the friendless.
	counts := make([]int, z)
	var touched []int
	c := 0
	for i := 0; i < n; i++ {
		if community[i] >= 0 {
			continue
		}
		touched = touched[:0]
		for _, f := range g.Friends(i) {
			if cf := community[f]; cf >= 0 {
				if counts[cf] == 0 {
					touched = append(touched, cf)
				}
				counts[cf]++
			}
		}
		best, bestN := -1, 0
		for _, comm := range touched {
			cnt := counts[comm]
			counts[comm] = 0
			if cnt > bestN || (cnt == bestN && comm < best) {
				best, bestN = comm, cnt
			}
		}
		if best >= 0 {
			community[i] = best
		} else {
			community[i] = c % z
			c++
		}
	}
	return community
}

// randMember returns a uniformly random player currently in community c, or
// -1 if the community is empty. Linear scan with reservoir sampling keeps
// it allocation-free.
func randMember(community []int, c int, r *rng.Rand) int {
	chosen := -1
	count := 0
	for p, cp := range community {
		if cp != c {
			continue
		}
		count++
		if r.Intn(count) == 0 {
			chosen = p
		}
	}
	return chosen
}

// move records one player's community before swapBalls moved it.
type move struct{ player, from int }

// swapBalls moves n_i and its friends to cb and n_j and its friends to ca,
// appending every move to log (a player may appear twice) for rollback in
// reverse order.
func swapBalls(g *social.Graph, community []int, ni, ca, nj, cb int, log []move) []move {
	put := func(p, to int) {
		log = append(log, move{p, community[p]})
		community[p] = to
	}
	put(ni, cb)
	for _, f := range g.Friends(ni) {
		put(f, cb)
	}
	put(nj, ca)
	for _, f := range g.Friends(nj) {
		put(f, ca)
	}
	return log
}

// Random assigns each player to a uniformly random server; this is the
// "w/o" baseline of Fig. 12 ("the users are randomly assigned to servers in
// a datacenter").
func Random(n, servers int, r *rng.Rand) []int {
	community := make([]int, n)
	for i := range community {
		community[i] = r.Intn(servers)
	}
	return community
}

// CrossServerFraction returns the fraction of friendship edges whose
// endpoints sit on different servers — the interactions that trigger
// server-to-server communication and hence the Fig. 12 server latency.
func CrossServerFraction(g *social.Graph, community []int) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	var cross int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Friends(u) {
			if u < v && community[u] != community[v] {
				cross++
			}
		}
	}
	return float64(cross) / float64(g.NumEdges())
}
