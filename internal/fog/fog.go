// Package fog implements the fog layer of CloudFog: the supernodes that
// render and stream game videos, the cloud-side supernode registry, and the
// player-side selection procedure of §3.2 (candidate discovery, delay
// filtering, reputation ranking, sequential capacity probing) together with
// the churn handling of §3.2.2 (migration on supernode failure, candidate
// refresh when supernodes join).
package fog

import (
	"cmp"
	"fmt"
	"slices"

	"cloudfog/internal/geo"
	"cloudfog/internal/netmodel"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
)

// Supernode is one fog node: a contributed machine pre-installed with the
// game client that renders and streams game videos for nearby players.
type Supernode struct {
	// ID identifies the supernode (matches its endpoint ID).
	ID int
	// Endpoint is the supernode's network attachment.
	Endpoint *netmodel.Endpoint
	// Capacity is the maximum number of players the supernode can render
	// and stream for simultaneously.
	Capacity int
	// Throttle is the willingness factor in (0, 1]: the fraction of
	// upload capacity the owner currently devotes to players (§3.2.1's
	// third factor; the experiments throttle 1/5 of supernodes to 0.8 and
	// 1/10 to 0.5 with 50% probability each cycle).
	Throttle float64
	// Active marks whether the supernode is currently deployed.
	Active bool

	// players holds the connected player IDs in no particular order: a
	// supernode serves a handful of players, so a scan beats a map and
	// Disconnect swap-removes.
	players []int
}

// NewSupernode creates an active supernode with full willingness.
func NewSupernode(endpoint *netmodel.Endpoint, capacity int) *Supernode {
	if capacity < 1 {
		capacity = 1
	}
	return &Supernode{
		ID:       endpoint.ID,
		Endpoint: endpoint,
		Capacity: capacity,
		Throttle: 1,
		Active:   true,
	}
}

// Load returns the number of connected players.
func (s *Supernode) Load() int { return len(s.players) }

// Available returns the remaining player slots (0 when inactive).
func (s *Supernode) Available() int {
	if !s.Active {
		return 0
	}
	return s.Capacity - len(s.players)
}

// Players returns the IDs of the connected players in ascending order, in
// a new slice.
func (s *Supernode) Players() []int {
	out := slices.Clone(s.players)
	slices.Sort(out)
	return out
}

// EffectiveUploadKbps returns the upload bandwidth the supernode currently
// devotes to streaming, after willingness throttling.
func (s *Supernode) EffectiveUploadKbps() float64 {
	return s.Endpoint.UploadKbps * s.Throttle
}

// PerStreamKbps returns the upload bandwidth one player's stream gets. The
// supernode provisions its upload per capacity slot (owners cap the
// per-process bandwidth rather than letting active streams scavenge idle
// slots), so the share is EffectiveUpload / Capacity regardless of the
// instantaneous load. Throttling therefore strictly degrades every stream.
func (s *Supernode) PerStreamKbps() float64 {
	c := s.Capacity
	if c < 1 {
		c = 1
	}
	return s.EffectiveUploadKbps() / float64(c)
}

// Manager is the cloud-side supernode registry: "the cloud stores the
// information of supernodes in the system in a table including their IP
// addresses and available capacities".
type Manager struct {
	model *netmodel.Model
	// byID is the registry indexed by ID - base, nil where no supernode has
	// that ID. Supernode IDs are endpoint IDs, which the simulator allocates
	// contiguously, so the index is dense and Get is one bounds check.
	byID []*Supernode
	base int
	// ordered holds the registered supernodes sorted by ID: whole-registry
	// passes (active counts, All, building the grid) iterate it.
	ordered []*Supernode
	// grid indexes ordered by location for CandidatesFor. Register drops
	// it and the next query rebuilds it; nothing else touches it, because a
	// registered supernode's Endpoint.Loc never changes (re-Register one to
	// move it).
	grid *cellGrid
	// CandidateListSize is how many physically-close supernodes the cloud
	// returns to a joining player.
	CandidateListSize int
}

// DefaultCandidateListSize is the number of candidates the cloud returns.
const DefaultCandidateListSize = 8

// NewManager creates an empty registry over the given network model.
func NewManager(model *netmodel.Model) *Manager {
	return &Manager{
		model:             model,
		CandidateListSize: DefaultCandidateListSize,
	}
}

// Register adds a supernode to the registry, replacing any previous entry
// with the same ID. Registering IDs in ascending order, as the simulator
// does, appends to both indexes in amortised O(1); the index spans the
// lowest to the highest registered ID, so IDs should be dense.
func (m *Manager) Register(s *Supernode) {
	if len(m.byID) == 0 {
		m.base = s.ID
	}
	if s.ID < m.base {
		m.byID = append(make([]*Supernode, m.base-s.ID, m.base-s.ID+len(m.byID)), m.byID...)
		m.base = s.ID
	}
	if n := s.ID - m.base + 1; n > len(m.byID) {
		m.byID = append(m.byID, make([]*Supernode, n-len(m.byID))...)
	}
	i, exists := slices.BinarySearchFunc(m.ordered, s.ID, func(o *Supernode, id int) int { return cmp.Compare(o.ID, id) })
	if exists {
		m.ordered[i] = s
	} else {
		m.ordered = slices.Insert(m.ordered, i, s)
	}
	m.byID[s.ID-m.base] = s
	m.grid = nil
}

// Get returns the supernode with the given ID, or nil.
func (m *Manager) Get(id int) *Supernode {
	if i := id - m.base; i >= 0 && i < len(m.byID) {
		return m.byID[i]
	}
	return nil
}

// All returns all registered supernodes, active or not, sorted by ID.
func (m *Manager) All() []*Supernode {
	return append([]*Supernode(nil), m.ordered...)
}

// NumActive returns how many supernodes are currently deployed.
func (m *Manager) NumActive() int {
	n := 0
	for _, s := range m.ordered {
		if s.Active {
			n++
		}
	}
	return n
}

// Deactivate takes a supernode out of service (owner leave or failure) and
// returns the IDs of the players it was serving, who must migrate.
func (m *Manager) Deactivate(id int) []int {
	s := m.Get(id)
	if s == nil || !s.Active {
		return nil
	}
	s.Active = false
	displaced := s.Players()
	s.players = s.players[:0]
	return displaced
}

// Activate (re)deploys a supernode.
func (m *Manager) Activate(id int) {
	if s := m.Get(id); s != nil {
		s.Active = true
	}
}

// Connect attaches a player to a supernode if it has available capacity,
// reporting success. Connecting an attached player again changes nothing.
func (m *Manager) Connect(playerID, supernodeID int) bool {
	s := m.Get(supernodeID)
	if s == nil || s.Available() <= 0 {
		return false
	}
	if !slices.Contains(s.players, playerID) {
		s.players = append(s.players, playerID)
	}
	return true
}

// Disconnect detaches a player from a supernode.
func (m *Manager) Disconnect(playerID, supernodeID int) {
	s := m.Get(supernodeID)
	if s == nil {
		return
	}
	if i := slices.Index(s.players, playerID); i >= 0 {
		last := len(s.players) - 1
		s.players[i] = s.players[last]
		s.players = s.players[:last]
	}
}

// CandidatesFor returns up to CandidateListSize active supernodes with
// available capacity, physically closest to the given location — the
// cloud's answer to a joining player's request (§3.2.1). The list is
// ordered by (distance, ID), a total order, so it is a pure function of the
// registry's state. The first call after a Register builds the location
// index, so, like every Manager method, it must not run concurrently with
// another.
func (m *Manager) CandidatesFor(loc geo.Point) []*Supernode {
	top := m.nearest(loc, nil)
	out := make([]*Supernode, len(top))
	for i, c := range top {
		out[i] = c.s
	}
	return out
}

// nearest is CandidatesFor into top's storage (reallocated when its
// capacity is not CandidateListSize).
func (m *Manager) nearest(loc geo.Point, top []candidate) []candidate {
	k := m.CandidateListSize
	if k <= 0 {
		return top[:0]
	}
	if m.grid == nil {
		m.grid = newCellGrid(m.ordered)
	}
	if cap(top) != k {
		top = make([]candidate, 0, k)
	}
	return m.grid.nearest(loc, top[:0])
}

// Selection is the outcome of a player's supernode-selection procedure,
// including the latency decomposition used by Fig. 9.
type Selection struct {
	// Supernode is the chosen supernode, nil when the player must fall
	// back to the cloud.
	Supernode *Supernode
	// RTTMs is the player<->Supernode round trip the delay test measured
	// (0 without a Supernode).
	RTTMs float64
	// RequestMs is the player<->cloud round trip to fetch candidates.
	RequestMs float64
	// PingMs is the (parallel) delay-test time: the slowest candidate RTT.
	PingMs float64
	// ProbeMs is the sequential capacity-probing time: one RTT per asked
	// candidate until one has capacity.
	ProbeMs float64
	// Probed is how many candidates were asked for capacity.
	Probed int
	// Candidates is how many candidates passed the delay filter.
	Candidates int
}

// TotalMs returns the player-join latency: request + ping tests + probes.
func (sel Selection) TotalMs() float64 { return sel.RequestMs + sel.PingMs + sel.ProbeMs }

// Selector runs the player-side selection procedure. It keeps scratch
// buffers between calls, so, like Manager, it is not safe for concurrent
// use.
type Selector struct {
	Manager *Manager
	Model   *netmodel.Model
	// CloudEndpoint is the datacenter the player contacts for candidates.
	CloudEndpoint *netmodel.Endpoint
	// Policy picks the ranking rule.
	Policy selection.Policy
	// Global is consulted only under PolicyGlobalReputation.
	Global *reputation.GlobalBook

	top       []candidate
	list      []selection.Candidate
	qualified []selection.Candidate // selection.Pipeline.Scratch
	rtt       *rng.Rand             // reseeded per RTT draw (netmodel.PathRTTMsR)
}

// Select runs §3.2's procedure for the player: fetch candidates from the
// cloud, test transmission delay to all of them, drop those above
// maxDelayMs (L_max, from the game's latency requirement), order the rest
// by policy, then sequentially probe for available capacity and connect to
// the first that accepts. A nil book with PolicyReputation is treated as an
// empty book (all scores zero). The filtering, ranking, and probing are
// delegated to the shared internal/selection pipeline.
func (sel *Selector) Select(player *netmodel.Endpoint, maxDelayMs float64,
	book *reputation.Book, today int, r *rng.Rand) Selection {

	if sel.rtt == nil {
		sel.rtt = rng.New(0)
	}
	out := Selection{}
	out.RequestMs = sel.Model.PathRTTMsR(sel.rtt, player, sel.CloudEndpoint)

	sel.top = sel.Manager.nearest(player.Loc, sel.top)
	list := sel.list[:0]
	for _, c := range sel.top {
		list = append(list, selection.Candidate{
			ID:       c.s.ID,
			Load:     c.s.Load(),
			Capacity: c.s.Capacity,
			RTTMs:    sel.Model.PathRTTMsR(sel.rtt, player, c.s.Endpoint),
		})
	}
	sel.list = list
	sel.qualified = slices.Grow(sel.qualified[:0], len(list))
	var scorer selection.Scorer
	switch sel.Policy {
	case selection.PolicyGlobalReputation:
		if sel.Global != nil {
			scorer = sel.Global
		}
	default:
		if book == nil {
			book = reputation.NewBook(reputation.DefaultLambda)
		}
		scorer = book
	}
	pipe := selection.Pipeline{
		Candidates: list,
		Ranker:     selection.PolicyRanker{Policy: sel.Policy, Scorer: scorer},
		Scratch:    sel.qualified,
	}
	// Sequential capacity probing: one RTT per asked supernode.
	res := pipe.Run(maxDelayMs, today, r, func(c selection.Candidate) bool {
		out.ProbeMs += c.RTTMs
		return sel.Manager.Connect(player.ID, c.ID)
	})
	out.PingMs = res.PingMs
	out.Candidates = res.Candidates
	out.Probed = res.Probed
	if res.OK {
		out.Supernode = sel.Manager.Get(res.Chosen.ID)
		out.RTTMs = res.Chosen.RTTMs
	}
	return out
}

// String renders the selection outcome for logs.
func (sel Selection) String() string {
	id := -1
	if sel.Supernode != nil {
		id = sel.Supernode.ID
	}
	return fmt.Sprintf("selection{sn=%d candidates=%d probed=%d total=%.1fms}",
		id, sel.Candidates, sel.Probed, sel.TotalMs())
}
