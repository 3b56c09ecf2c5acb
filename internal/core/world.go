package core

import (
	"fmt"
	"sync/atomic"

	"cloudfog/internal/cloudinfra"
	"cloudfog/internal/fog"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/netmodel"
	"cloudfog/internal/provisioning"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
	"cloudfog/internal/social"
	"cloudfog/internal/workload"
)

// sourceKind describes where a player's game video comes from.
type sourceKind uint8

const (
	srcNone sourceKind = iota
	srcCloud
	srcSupernode
	srcCDN
)

// Player is one end user of the simulated system. It is a thin handle: the
// identity fields below are stable for the player's lifetime, while the hot
// per-cycle state (online flag, video source, session schedule, meters)
// lives in the System's playerStore slices at index ID.
type Player struct {
	// ID is the player's dense index in [0, Players).
	ID int
	// Endpoint is the player's network attachment.
	Endpoint *netmodel.Endpoint
	// Behavior is the player's daily play-time class.
	Behavior workload.BehaviorClass
	// Game is the title the player currently plays.
	Game game.Game
	// Book is the player's private reputation ledger.
	Book *reputation.Book

	// st points back to the store holding this player's per-cycle state.
	st *playerStore
}

// cdnServer is an EdgeCloud-style edge server: state + render + stream.
type cdnServer struct {
	Index    int
	Endpoint *netmodel.Endpoint
	Capacity int
	// load is the number of players the server streams to.
	load int
}

func (s *cdnServer) available() int { return s.Capacity - s.load }

// supernodeMeta carries per-supernode simulation state beyond fog.Supernode.
type supernodeMeta struct {
	// throttleGroup is the owner's willingness profile: 1.0 (always
	// willing), 0.8, or 0.5 (throttles with 50% probability per cycle).
	throttleGroup float64
	// prevSupported is N_i from the previous provisioning slot.
	prevSupported int
	// supportedThisSlot accumulates distinct serving load this slot.
	supportedThisSlot int
}

// System is one simulated deployment of a gaming system.
type System struct {
	cfg   Config
	model *netmodel.Model
	games []game.Game

	players []*Player
	// ps holds the hot per-cycle player state (see playerStore).
	ps    *playerStore
	graph *social.Graph
	// friends[i] is player i's friend list, sorted ascending — precomputed
	// once from the immutable graph so the per-subcycle interaction scan
	// neither allocates nor re-sorts.
	friends [][]int32

	cloud      *cloudinfra.Cloud
	fogMgr     *fog.Manager
	selector   *fog.Selector
	snMeta     map[int]*supernodeMeta
	cdn        []*cdnServer
	forecaster *provisioning.Forecaster
	coplay     *social.CoPlayRecorder
	// lastAssignCycle is the cycle of the most recent weekly assignment.
	lastAssignCycle int

	metrics Metrics

	rBuild *rng.Rand
	rRun   *rng.Rand

	// churn-mode state (arrival-script experiments)
	arrivalPool []int // offline player IDs available to join

	// shards partitions player indices by region for the parallel tick
	// workers (see parallel.go). Built once: regions are static.
	shards [][]int32
	// evalResults is the per-player result buffer of the parallel eval
	// phase, reused every subcycle.
	evalResults []evalResult
	// joinFriends buffers join's online-friends filter; joins run on the
	// control plane, single-threaded.
	joinFriends []int32
	// workerScratch holds one evalScratch per eval worker.
	workerScratch []evalScratch
	// shardCursor is the next shard an eval worker claims.
	shardCursor atomic.Int64

	// assignment scratch (see assignStateServer): per-server friend counts
	// and the touched-server list, reused across joins at zero allocations.
	srvCount   []int32
	srvTouched []int32
	// friendGameScratch collects online friends' game IDs during join, and
	// gameCounts is workload.ChooseGame's per-game-ID scratch.
	friendGameScratch []int
	gameCounts        []int
	// joinRand is the control plane's scratch for keyed draws (the
	// datacenter RTTs at build; join's game decision and CDN path RTT; a
	// provisioned supernode's registration RTT), reseeded by each use.
	joinRand *rng.Rand
}

// NewSystem builds a deployment from cfg. Construction is deterministic in
// cfg.Seed.
func NewSystem(cfg Config) (*System, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	master := rng.New(cfg.Seed)
	s := &System{
		cfg:      cfg,
		games:    game.Catalog(),
		snMeta:   make(map[int]*supernodeMeta),
		rBuild:   master.SplitNamed("build"),
		rRun:     master.SplitNamed("run"),
		joinRand: rng.New(0),
	}
	// Catalog IDs run from 1 to len(games).
	s.gameCounts = make([]int, len(s.games)+1)
	s.model = netmodel.NewModel(cfg.Net, cfg.Seed^0xc10dF09)
	if err := s.buildWorld(); err != nil {
		return nil, err
	}
	return s, nil
}

// Players returns the player population.
func (s *System) Players() []*Player { return s.players }

// Fog returns the supernode registry (nil outside ModeCloudFog).
func (s *System) Fog() *fog.Manager { return s.fogMgr }

func (s *System) buildWorld() error {
	cfg := s.cfg
	nextID := 0
	idAlloc := func() int { nextID++; return nextID - 1 }

	placer := geo.NewPlacer(nil)
	rPlace := s.rBuild.SplitNamed("place")
	rNet := s.rBuild.SplitNamed("net")
	rBehavior := s.rBuild.SplitNamed("behavior")

	// Players.
	s.ps = newPlayerStore(cfg.Players)
	s.players = make([]*Player, cfg.Players)
	for i := 0; i < cfg.Players; i++ {
		ep := netmodel.NewPlayerEndpoint(idAlloc(), placer.PlacePlayer(rPlace), rNet)
		p := &Player{
			ID:       i,
			Endpoint: ep,
			Behavior: workload.SampleBehavior(rBehavior),
			Book:     reputation.NewBook(cfg.Lambda),
			Game:     s.games[rBehavior.Intn(len(s.games))],
		}
		if idx := s.ps.alloc(p); idx != i {
			return fmt.Errorf("player store allocated index %d for player %d", idx, i)
		}
		s.players[i] = p
	}

	// Social graph: power-law friends (skew 1.5) planted over guilds.
	s.graph = social.Generate(social.GenerateConfig{
		N:    cfg.Players,
		Skew: 1.5,
	}, s.rBuild.SplitNamed("social"))
	// The graph is immutable after Generate: freeze each player's friend
	// list (Friends is already ascending) as int32s for the hot paths.
	s.friends = make([][]int32, cfg.Players)
	for i := 0; i < cfg.Players; i++ {
		fs := s.graph.Friends(i)
		out := make([]int32, len(fs))
		for j, f := range fs {
			out[j] = int32(f)
		}
		s.friends[i] = out
	}
	// Implicit friendships: co-play within the recent week (§3.4).
	s.coplay = social.NewCoPlayRecorder(0, 0)

	// Cloud datacenters.
	cloud, err := cloudinfra.New(cfg.Datacenters, cfg.ServersPerDC, idAlloc)
	if err != nil {
		return fmt.Errorf("build cloud: %w", err)
	}
	s.cloud = cloud
	for _, p := range s.players {
		dc := s.cloud.NearestDatacenter(p.Endpoint.Loc)
		s.ps.dc[p.ID] = int32(dc.ID)
		s.ps.dcRTT[p.ID] = s.model.PathRTTMs(s.joinRand, p.Endpoint, dc.Endpoint)
	}
	s.buildShards()

	switch cfg.Mode {
	case ModeCloudFog:
		s.buildFog(idAlloc)
	case ModeCDN:
		s.buildCDN(placer, idAlloc)
	case ModeCloud:
		// nothing extra
	}
	return nil
}

// buildFog deploys supernodes from the candidate pool. Candidates are
// sampled from the player population's geography (contributed machines live
// where players live), with capacities Pareto(α=2).
func (s *System) buildFog(idAlloc func() int) {
	cfg := s.cfg
	rFog := s.rBuild.SplitNamed("fog")
	s.fogMgr = fog.NewManager(s.model)
	s.fogMgr.CandidateListSize = cfg.CandidateListSize

	placer := geo.NewPlacer(nil)
	for i := 0; i < cfg.SupernodeCandidates; i++ {
		// Contributed machines are a mix of players' own computers
		// (metro-clustered) and organizations' idle desktops (spread out).
		loc := placer.PlacePlayer(rFog)
		if rFog.Bool(0.4) {
			loc = placer.PlaceUniform(rFog)
		}
		ep := netmodel.NewSupernodeEndpoint(idAlloc(), loc, rFog)
		capacity := netmodel.SupernodeCapacity(rFog, cfg.SupernodeCapacityMin, cfg.SupernodeCapacityMax)
		// A supernode only advertises the slots its uplink can feed with
		// headroom above the top-ladder bitrate (~5 Mbps per slot), so
		// streams survive congestion dips — part of the "superior network
		// connection" requirement of §3.1.1.
		if byBW := int(ep.UploadKbps / 5000); capacity > byBW && byBW >= 1 {
			capacity = byBW
		}
		if cfg.ForcedSupernodeLoad > 0 {
			capacity = cfg.ForcedSupernodeLoad
		}
		sn := fog.NewSupernode(ep, capacity)
		sn.Active = i < cfg.Supernodes
		s.fogMgr.Register(sn)

		meta := &supernodeMeta{throttleGroup: 1}
		// 1/5 of supernodes throttle to 80%, a further 1/10 to 50%.
		switch {
		case i%5 == 1:
			meta.throttleGroup = 0.8
		case i%10 == 4:
			meta.throttleGroup = 0.5
		}
		s.snMeta[sn.ID] = meta
	}

	// Policies live in internal/selection, the §3.2 engine shared with the
	// live fognet prototype.
	policy := selection.PolicyRandom
	if cfg.Strategies.Reputation {
		policy = selection.PolicyReputation
	}
	s.selector = &fog.Selector{
		Manager:       s.fogMgr,
		Model:         s.model,
		CloudEndpoint: s.cloud.Datacenters()[0].Endpoint,
		Policy:        policy,
	}
}

// buildCDN deploys randomly distributed CDN servers (EdgeCloud).
func (s *System) buildCDN(placer *geo.Placer, idAlloc func() int) {
	rCDN := s.rBuild.SplitNamed("cdn")
	for i := 0; i < s.cfg.CDNServers; i++ {
		ep := netmodel.NewSupernodeEndpoint(idAlloc(), placer.PlaceUniform(rCDN), rCDN)
		ep.UploadKbps = 200000 // CDN servers have specialized resources
		ep.DownloadKbps = 200000
		ep.AccessRTTMs = 2
		s.cdn = append(s.cdn, &cdnServer{
			Index:    i,
			Endpoint: ep,
			Capacity: s.cfg.CDNServerCapacity,
		})
	}
}

// nearestCDNWithCapacity returns the closest CDN server that can take one
// more player, or nil.
func (s *System) nearestCDNWithCapacity(loc geo.Point) *cdnServer {
	var best *cdnServer
	bestD := 0.0
	for _, srv := range s.cdn {
		if srv.available() <= 0 {
			continue
		}
		d := geo.Distance(loc, srv.Endpoint.Loc)
		if best == nil || d < bestD {
			best, bestD = srv, d
		}
	}
	return best
}

// onlineFriends appends player id's currently-online friends to buf (which
// it first truncates) and returns it. The result is ascending by ID — the
// precomputed friends list is sorted and filtering preserves order.
func (s *System) onlineFriends(id int, buf []int32) []int32 {
	buf = buf[:0]
	for _, f := range s.friends[id] {
		if s.ps.online[f] {
			buf = append(buf, f)
		}
	}
	return buf
}
