package core

import (
	"math"
	"time"

	"cloudfog/internal/adaptation"
	"cloudfog/internal/assignment"
	"cloudfog/internal/cloudinfra"
	"cloudfog/internal/geo"
	"cloudfog/internal/netmodel"
	"cloudfog/internal/provisioning"
	"cloudfog/internal/rng"
	"cloudfog/internal/sim"
	"cloudfog/internal/streaming"
	"cloudfog/internal/workload"
)

// Simulation tuning constants.
const (
	// adaptationStepsPerSubcycle is how many controller observations run
	// per hourly subcycle; the controller settles to its quasi-steady
	// quality level within a few steps.
	adaptationStepsPerSubcycle = 8
	// adaptationStepSec is the simulated spacing of controller steps.
	adaptationStepSec = 5.0
	// wideAreaFullPenaltyKm is the path length at which the full
	// WideAreaBWPenalty applies.
	wideAreaFullPenaltyKm = 3000.0
	// supernodeRegistrationMs is the cloud-side processing time of a
	// supernode registration, on top of the network round trips.
	supernodeRegistrationMs = 50.0
	// lMaxFactor converts a game's response-latency requirement into the
	// player's supernode transmission-delay threshold L_max (§3.2.1).
	lMaxFactor = 0.5
)

// Run executes the paper's experimental protocol: `cycles` daily cycles of
// 24 subcycles, with the first `warmupCycles` excluded from measurement.
// Zero arguments select the paper's defaults (28 cycles, 21 warm-up).
// Run can be called once per System.
func (s *System) Run(cycles, warmupCycles int) *Metrics {
	engine := sim.Engine{Cycles: cycles, WarmupCycles: warmupCycles}
	s.forecaster = s.newForecaster()
	s.initArrivalPool()
	engine.Run(sim.Hooks{
		BeginCycle: s.beginCycle,
		Subcycle:   s.stepSubcycle,
		EndCycle:   s.endCycle,
	})
	s.finalize(cycles)
	return &s.metrics
}

func (s *System) newForecaster() *provisioning.Forecaster {
	windows := 24 * 7 / s.cfg.ProvisionWindowHours
	f, err := provisioning.NewForecaster(windows, 0.3, 0.5)
	if err != nil {
		// Window hours are validated in normalize; this cannot happen.
		panic(err)
	}
	return f
}

func (s *System) initArrivalPool() {
	if s.cfg.Arrivals == nil {
		return
	}
	s.arrivalPool = s.arrivalPool[:0]
	for _, p := range s.players {
		s.arrivalPool = append(s.arrivalPool, p.ID)
	}
}

// ---- cycle hooks -------------------------------------------------------

func (s *System) beginCycle(cycle int, measured bool) {
	r := s.rRun.SplitNamed("cycle")
	// Supernode willingness: throttled groups throttle with 50%
	// probability each cycle.
	if s.fogMgr != nil {
		for _, sn := range s.fogMgr.All() {
			meta := s.snMeta[sn.ID]
			if meta.throttleGroup < 1 && r.Bool(0.5) {
				sn.Throttle = meta.throttleGroup
			} else {
				sn.Throttle = 1
			}
		}
	}
	// Daily session schedule (population mode only).
	if s.cfg.Arrivals == nil {
		if s.cfg.AlwaysOn {
			allDay := workload.Session{Start: 1, Duration: workload.SubcyclesPerCycle}
			for i := range s.ps.session {
				s.ps.session[i] = allDay
			}
		} else {
			for i, p := range s.players {
				s.ps.session[i] = workload.ScheduleDay(p.Behavior, r)
			}
		}
	}
	// Weekly social-network-based server reassignment.
	if s.cfg.Strategies.SocialAssignment && cycle%7 == 0 {
		s.lastAssignCycle = cycle
		s.runServerAssignment(r)
	}
	// Fixed supernode pool for churn baselines.
	if s.fogMgr != nil && !s.cfg.Strategies.Provisioning && s.cfg.FixedSupernodePool > 0 {
		s.applyFixedPool(cycle, measured)
	}
}

func (s *System) stepSubcycle(clock sim.Clock, measured bool) {
	r := s.rRun.SplitNamed("sub")
	// Churn-mode arrivals.
	if s.cfg.Arrivals != nil {
		s.spawnArrivals(clock, r)
	}
	// Session transitions.
	for i, p := range s.players {
		active := s.ps.session[i].Active(clock.Subcycle)
		switch {
		case active && !s.ps.online[i]:
			s.join(p, clock, measured, r)
		case !active && s.ps.online[i]:
			s.leave(p, clock, measured)
		}
	}
	// Dynamic supernode provisioning at window boundaries.
	if s.fogMgr != nil && s.cfg.Strategies.Provisioning &&
		(clock.Subcycle-1)%s.cfg.ProvisionWindowHours == 0 {
		s.provisionStep(clock, measured, r)
	}
	// Injected supernode failures (Fig. 9 migration study): the chosen
	// supernodes drop their players (who migrate) and then rejoin service,
	// keeping the fleet size stable across injections.
	if s.fogMgr != nil && s.cfg.FailSupernodesPerCycle > 0 && measured && clock.Subcycle == 12 {
		for _, id := range s.failSupernodeIDs(s.cfg.FailSupernodesPerCycle, clock) {
			s.fogMgr.Activate(id)
		}
	}
	// Streaming evaluation: the hot phase. See parallel.go for the worker
	// pool and the determinism contract that keeps its output bit-identical
	// for any worker count.
	online, cloudEgressKbps := s.evalPhase(clock, measured)
	if s.fogMgr != nil {
		active := s.fogMgr.NumActive()
		cloudEgressKbps += cloudinfra.UpdateBandwidthKbps(active, s.cfg.UpdateKbps)
		if measured {
			s.metrics.ActiveSupernodes.Add(float64(active))
		}
		// Track per-slot supernode load for provisioning ranking.
		for _, sn := range s.fogMgr.All() {
			if meta := s.snMeta[sn.ID]; sn.Load() > meta.supportedThisSlot {
				meta.supportedThisSlot = sn.Load()
			}
		}
	}
	if measured {
		s.metrics.CloudEgressMbps.Add(cloudEgressKbps / 1000)
		s.metrics.OnlinePlayers.Add(float64(online))
	}
}

func (s *System) endCycle(cycle int, measured bool) {
	// AlwaysOn sessions span exactly one day: close them at day end so the
	// player rates its supernode and re-selects tomorrow, as a daily-play
	// population would.
	if s.cfg.AlwaysOn && s.cfg.Arrivals == nil {
		clock := sim.Clock{Cycle: cycle, Subcycle: workload.SubcyclesPerCycle}
		for i, p := range s.players {
			if s.ps.online[i] {
				s.leave(p, clock, measured)
			}
		}
	}
	// Reputation pruning bounds memory for long runs.
	if cycle%7 == 6 {
		for _, p := range s.players {
			p.Book.Prune(cycle, 60)
		}
	}
}

// finalize closes any session still open when the simulation ends so its
// metrics are recorded.
func (s *System) finalize(cycles int) {
	if cycles == 0 {
		cycles = sim.DefaultCycles
	}
	clock := sim.Clock{Cycle: cycles - 1, Subcycle: workload.SubcyclesPerCycle}
	for i, p := range s.players {
		if s.ps.online[i] {
			s.leave(p, clock, true)
		}
	}
}

// ---- joins, leaves, migration ------------------------------------------

func (s *System) join(p *Player, clock sim.Clock, measured bool, r *rng.Rand) {
	ps := s.ps
	ps.online[p.ID] = true
	ps.meter[p.ID] = streaming.Meter{}

	// Friend-driven game choice, with a 20% independent-taste chance so
	// the catalog never collapses onto a single title by pure cascade.
	// The choice draws from a stream keyed by (player, day) so that the
	// game mix evolves identically across compared systems — otherwise
	// herding noise would dominate cross-system comparisons.
	rGame := s.joinRand
	rGame.Reseed(s.decisionKey("game", p.ID, clock.Cycle, clock.Subcycle))
	friendGames := s.friendGameScratch[:0]
	if !rGame.Bool(0.2) {
		s.joinFriends = s.onlineFriends(p.ID, s.joinFriends)
		for _, f := range s.joinFriends {
			friendGames = append(friendGames, s.players[f].Game.ID)
		}
	}
	p.Game = workload.ChooseGame(friendGames, s.games, rGame, s.gameCounts)
	s.friendGameScratch = friendGames

	// State-server assignment inside the player's datacenter.
	s.assignStateServer(p, r)

	// Video source selection. Every branch sets the session's route from an
	// RTT already in hand: the datacenter's from build, a supernode's from
	// the selector's delay test, a CDN server's from the one draw here.
	dcRTT := ps.dcRTT[p.ID]
	var joinMs float64
	switch s.cfg.Mode {
	case ModeCloudFog:
		// L_max comes from the game's latency requirement (§3.2.1), and a
		// supernode is never worth using when the player's own datacenter
		// path is already faster.
		lmax := p.Game.LatencyRequirementMs * lMaxFactor
		if dcOneWay := dcRTT / 2; dcOneWay < lmax {
			lmax = dcOneWay
		}
		sel := s.selector.Select(p.Endpoint, lmax, p.Book, clock.Day(), r)
		joinMs = sel.TotalMs()
		if sel.Supernode != nil {
			ps.src[p.ID] = srcSupernode
			ps.supernode[p.ID] = int32(sel.Supernode.ID)
			joinMs += sel.RTTMs
			s.setRoute(p, sel.Supernode.Endpoint, sel.RTTMs)
		} else {
			ps.src[p.ID] = srcCloud
			joinMs += dcRTT
			s.setCloudRoute(p)
		}
	case ModeCDN:
		srv := s.nearestCDNWithCapacity(p.Endpoint.Loc)
		// Like a supernode, a CDN server only helps a player it can reach
		// within the game's delay threshold — and only when it beats the
		// player's own datacenter path; players out of reach stay on the
		// cloud ("not all users in CDN are able to connect to a nearby
		// server due to the shortage of servers").
		var srvRTT float64
		if srv != nil {
			srvRTT = s.model.PathRTTMs(s.joinRand, p.Endpoint, srv.Endpoint)
		}
		if srv != nil && srvRTT/2 <= p.Game.LatencyRequirementMs*lMaxFactor && srvRTT <= dcRTT {
			ps.src[p.ID] = srcCDN
			ps.cdnServer[p.ID] = int32(srv.Index)
			srv.load++
			joinMs = srvRTT * 2
			s.setRoute(p, srv.Endpoint, srvRTT)
		} else {
			ps.src[p.ID] = srcCloud
			joinMs = dcRTT * 2
			s.setCloudRoute(p)
		}
	default:
		ps.src[p.ID] = srcCloud
		joinMs = dcRTT * 2
		s.setCloudRoute(p)
	}

	// Encoding-rate controller: receiver-driven adaptation is a CloudFog
	// strategy; the baselines stream at the game's fixed default rate.
	disabled := !(s.cfg.Mode == ModeCloudFog && s.cfg.Strategies.Adaptation)
	ps.ctrl[p.ID].Reset(adaptation.Config{
		Theta:    s.cfg.Theta,
		Rho:      p.Game.ToleranceDegree,
		MaxLevel: p.Game.DefaultQuality,
		Disabled: disabled,
		Debounce: s.cfg.AdaptationDebounce,
	}, p.Game.DefaultQuality)
	ps.ctrlOn[p.ID] = true

	if measured {
		s.metrics.PlayerJoinMs.Add(joinMs)
	}
}

func (s *System) leave(p *Player, clock sim.Clock, measured bool) {
	ps := s.ps
	if !ps.online[p.ID] {
		return
	}
	src := ps.src[p.ID]
	meter := &ps.meter[p.ID]
	if src == srcSupernode {
		// Rate the supernode with the session's playback continuity.
		if meter.Observed() {
			p.Book.Rate(int(ps.supernode[p.ID]), meter.Continuity(), clock.Day())
		}
		s.fogMgr.Disconnect(p.ID, int(ps.supernode[p.ID]))
	}
	if src == srcCDN {
		s.cdn[ps.cdnServer[p.ID]].load--
	}
	if measured && meter.Observed() {
		cont := meter.Continuity()
		s.metrics.Continuity.Add(cont)
		if src == srcSupernode || src == srcCDN {
			s.metrics.ContinuityFog.Add(cont)
		} else {
			s.metrics.ContinuityCloudServed.Add(cont)
		}
		if p.Game.ID >= 1 && p.Game.ID < len(s.metrics.ContinuityByGame) {
			s.metrics.ContinuityByGame[p.Game.ID].Add(cont)
		}
		s.metrics.Satisfied.Observe(meter.Satisfied())
		if ps.ctrlOn[p.ID] {
			s.metrics.BitrateSwitches.Add(float64(ps.ctrl[p.ID].Switches()))
		}
	}
	ps.online[p.ID] = false
	ps.src[p.ID] = srcNone
	ps.ctrlOn[p.ID] = false
	// Churn mode: the player returns to the arrival pool for a future
	// Poisson arrival.
	if s.cfg.Arrivals != nil {
		ps.session[p.ID] = workload.Session{}
		s.arrivalPool = append(s.arrivalPool, p.ID)
	}
}

// migrate reconnects a displaced player after its supernode left service:
// the player probes its candidate list for a new supernode and falls back
// to the cloud (§3.2.2). The paper measures this as migration latency.
func (s *System) migrate(p *Player, clock sim.Clock, measured bool, r *rng.Rand) {
	ps := s.ps
	if !ps.online[p.ID] {
		return
	}
	meter := &ps.meter[p.ID]
	if meter.Observed() && ps.src[p.ID] == srcSupernode {
		p.Book.Rate(int(ps.supernode[p.ID]), meter.Continuity(), clock.Day())
	}
	lmax := p.Game.LatencyRequirementMs * lMaxFactor
	dcRTT := ps.dcRTT[p.ID]
	if dcOneWay := dcRTT / 2; dcOneWay < lmax {
		lmax = dcOneWay
	}
	sel := s.selector.Select(p.Endpoint, lmax, p.Book, clock.Day(), r)
	var migrationMs float64
	if sel.Supernode != nil {
		ps.src[p.ID] = srcSupernode
		ps.supernode[p.ID] = int32(sel.Supernode.ID)
		// The candidate list is already known; migration pays the delay
		// tests, capacity probes, and the reconnect round trip. No game
		// state transfers: the cloud holds it all.
		migrationMs = sel.PingMs + sel.ProbeMs + sel.RTTMs
		s.setRoute(p, sel.Supernode.Endpoint, sel.RTTMs)
	} else {
		ps.src[p.ID] = srcCloud
		migrationMs = sel.RequestMs + sel.PingMs + sel.ProbeMs + dcRTT
		s.setCloudRoute(p)
	}
	if measured {
		s.metrics.MigrationMs.Add(migrationMs)
	}
}

// failSupernodeIDs deactivates n random active supernodes, migrates their
// players, and returns the failed supernode IDs.
func (s *System) failSupernodeIDs(n int, clock sim.Clock) []int {
	if s.fogMgr == nil || n <= 0 {
		return nil
	}
	r := s.rRun.SplitNamed("fail")
	var active []int
	for _, sn := range s.fogMgr.All() {
		if sn.Active {
			active = append(active, sn.ID)
		}
	}
	r.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
	if n > len(active) {
		n = len(active)
	}
	failed := active[:n]
	for _, id := range failed {
		for _, playerID := range s.fogMgr.Deactivate(id) {
			p := s.playerByEndpointID(playerID)
			if p != nil && s.ps.online[p.ID] {
				s.migrate(p, clock, true, r)
			}
		}
	}
	return failed
}

// playerByEndpointID maps an endpoint ID back to the player. Player
// endpoints are allocated first, so endpoint ID == player index.
func (s *System) playerByEndpointID(id int) *Player {
	if id < 0 || id >= len(s.players) {
		return nil
	}
	return s.players[id]
}

func (s *System) spawnArrivals(clock sim.Clock, r *rng.Rand) {
	n := s.cfg.Arrivals.ArrivalsInSubcycle(clock.Subcycle, r)
	for i := 0; i < n && len(s.arrivalPool) > 0; i++ {
		idx := r.Intn(len(s.arrivalPool))
		id := s.arrivalPool[idx]
		s.arrivalPool[idx] = s.arrivalPool[len(s.arrivalPool)-1]
		s.arrivalPool = s.arrivalPool[:len(s.arrivalPool)-1]
		dur := 1 + r.Intn(3)
		s.ps.session[id] = workload.Session{Start: clock.Subcycle, Duration: dur}
	}
}

// ---- state-server assignment --------------------------------------------

func (s *System) assignStateServer(p *Player, r *rng.Rand) {
	if s.cloud.ServerOf(p.ID) != nil {
		return // sticky assignment (weekly reassignment may move it)
	}
	dc := s.cloud.Datacenters()[s.ps.dc[p.ID]]
	if s.cfg.Strategies.SocialAssignment {
		// Join the server hosting most of the player's friends (any
		// datacenter; game state can live anywhere). Counts accumulate in a
		// dense per-server scratch slice — server IDs are contiguous from 0
		// — with a touched-list so clearing costs O(friends), not
		// O(servers), and the whole scan allocates nothing.
		if len(s.srvCount) < s.cloud.NumServers() {
			s.srvCount = make([]int32, s.cloud.NumServers())
		}
		touched := s.srvTouched[:0]
		for _, f := range s.friends[p.ID] {
			if srv := s.cloud.ServerOf(int(f)); srv != nil {
				if s.srvCount[srv.ID] == 0 {
					touched = append(touched, int32(srv.ID))
				}
				s.srvCount[srv.ID]++
			}
		}
		// Winner: highest friend count, smallest server ID on ties — the
		// same result the historical map scan converged to.
		bestID, bestN := -1, int32(0)
		for _, id := range touched {
			n := s.srvCount[id]
			if n > bestN || (n == bestN && int(id) < bestID) {
				bestID, bestN = int(id), n
			}
			s.srvCount[id] = 0
		}
		s.srvTouched = touched
		if bestID >= 0 {
			if err := s.cloud.AssignPlayerToServer(p.ID, bestID); err == nil {
				return
			}
		}
	}
	s.cloud.AssignPlayerRandom(p.ID, dc, r)
}

// runServerAssignment runs the periodic community-based reassignment over
// the whole player population — "given z servers, this problem turns to
// finding z network communities" — and records its wall-clock latency (the
// "server assignment latency" of Fig. 9). A player's game state can live on
// any server; what matters is that interacting friends share one. The
// assignment graph combines explicit friendships with the implicit ones
// inferred from recent co-play (§3.4's two friendship schemes).
func (s *System) runServerAssignment(r *rng.Rand) {
	var start time.Time
	if s.cfg.WallClock != nil {
		start = s.cfg.WallClock()
	}
	cycle := s.lastAssignCycle
	graph := s.coplay.AugmentGraph(s.graph, cycle)
	s.coplay.Prune(cycle)
	z := s.cloud.NumServers()
	res, err := assignment.Assign(graph, assignment.Config{
		Servers: z,
		H1:      s.cfg.AssignH1,
		H2:      s.cfg.AssignH2,
	}, r)
	if err != nil {
		return
	}
	for _, p := range s.players {
		if err := s.cloud.AssignPlayerToServer(p.ID, res.Community[p.ID]%z); err != nil {
			// Server IDs are 0..z-1 by construction; this cannot fail,
			// but never silently corrupt assignments.
			panic(err)
		}
	}
	s.metrics.Modularity.Add(res.Modularity)
	if s.cfg.WallClock != nil {
		s.metrics.ServerAssignmentMs.Add(float64(s.cfg.WallClock().Sub(start)) / float64(time.Millisecond))
	} else {
		s.metrics.ServerAssignmentMs.Add(modeledAssignMs(graph.N(), res.Iterations))
	}
}

// modeledAssignMs converts the work a server-assignment run performed into
// a deterministic latency estimate. The greedy seeding and each refinement
// iteration both visit every vertex and score its neighborhood, so the op
// count is n·(iterations+1); 50 ns per vertex visit puts the estimate in
// the tens-of-milliseconds range the wall clock used to report for the
// PeerSim deployment. Unlike a wall-clock reading, this is a pure function
// of the seeded run, so experiment outputs are byte-identical across
// machines and runs (the `deterministic` lint analyzer enforces that no
// simulator package reads real time).
func modeledAssignMs(n, iterations int) float64 {
	const msPerVertexVisit = 50e-6 // 50 ns, expressed in milliseconds
	return float64(n) * float64(iterations+1) * msPerVertexVisit
}

// ---- provisioning --------------------------------------------------------

func (s *System) avgSupernodeCapacity() float64 {
	all := s.fogMgr.All()
	if len(all) == 0 {
		return 1
	}
	var sum float64
	for _, sn := range all {
		sum += float64(sn.Capacity)
	}
	return sum / float64(len(all))
}

// fleetUtilization estimates what fraction of active supernode capacity is
// actually usable, from current loads. Bootstrap value 0.5 before any load
// is observed.
func (s *System) fleetUtilization() float64 {
	var load, capacity float64
	for _, sn := range s.fogMgr.All() {
		if sn.Active {
			load += float64(sn.Load())
			capacity += float64(sn.Capacity)
		}
	}
	if capacity == 0 || load == 0 {
		return 0.5
	}
	u := load / capacity
	if u < 0.2 {
		u = 0.2
	}
	return u
}

func (s *System) provisionStep(clock sim.Clock, measured bool, r *rng.Rand) {
	online := 0
	for _, on := range s.ps.online {
		if on {
			online++
		}
	}
	s.forecaster.Observe(float64(online))
	pred := s.forecaster.Forecast()
	// Ĉ in Eq. 15 is the EFFECTIVE average capacity: nominal capacity
	// discounted by the fleet's observed slot utilization, since locality
	// mismatches leave part of each supernode's nominal capacity unusable.
	effCap := s.avgSupernodeCapacity() * s.fleetUtilization()
	want := provisioning.SupernodeCount(pred, s.cfg.ProvisionEpsilon, effCap)
	if want < 1 {
		want = 1
	}
	all := s.fogMgr.All()
	if want > len(all) {
		want = len(all)
	}
	cands := make([]provisioning.Candidate, len(all))
	for i, sn := range all {
		cands[i] = provisioning.Candidate{ID: sn.ID, PrevSupported: s.snMeta[sn.ID].prevSupported}
	}
	selected := provisioning.Select(cands, want, r)
	keep := make(map[int]bool, len(selected))
	for _, c := range selected {
		keep[c.ID] = true
	}
	// Never withdraw a supernode that is actively serving players or was
	// busy in the previous slot: provisioning trims idle reserve, it does
	// not evict live sessions.
	for _, sn := range all {
		if sn.Active && (sn.Load() > 0 || s.snMeta[sn.ID].prevSupported > 0) {
			keep[sn.ID] = true
		}
	}
	dcEp := s.cloud.Datacenters()[0].Endpoint
	for _, sn := range all {
		switch {
		case keep[sn.ID] && !sn.Active:
			s.fogMgr.Activate(sn.ID)
			if measured {
				// Registration: connect to the cloud plus processing.
				s.metrics.SupernodeJoinMs.Add(
					s.model.PathRTTMs(s.joinRand, sn.Endpoint, dcEp)*1.5 + supernodeRegistrationMs)
			}
		case !keep[sn.ID] && sn.Active:
			for _, playerID := range s.fogMgr.Deactivate(sn.ID) {
				if p := s.playerByEndpointID(playerID); p != nil {
					s.migrate(p, clock, measured, r)
				}
			}
		}
		// Roll the load window.
		meta := s.snMeta[sn.ID]
		meta.prevSupported = meta.supportedThisSlot
		meta.supportedThisSlot = 0
	}
}

// applyFixedPool keeps exactly FixedSupernodePool supernodes active — the
// static baseline the churn experiments compare against.
func (s *System) applyFixedPool(cycle int, measured bool) {
	want := s.cfg.FixedSupernodePool
	all := s.fogMgr.All()
	for i, sn := range all {
		shouldBeActive := i < want
		if shouldBeActive && !sn.Active {
			s.fogMgr.Activate(sn.ID)
		} else if !shouldBeActive && sn.Active {
			clock := sim.Clock{Cycle: cycle, Subcycle: 1}
			r := s.rRun.SplitNamed("pool")
			for _, playerID := range s.fogMgr.Deactivate(sn.ID) {
				if p := s.playerByEndpointID(playerID); p != nil {
					s.migrate(p, clock, measured, r)
				}
			}
		}
	}
}

// ---- streaming evaluation -------------------------------------------------

// computeEval evaluates player i's delivery quality for one subcycle and
// fills out. It mutates only player-i state (rate controller, session
// meter) plus the worker-local scratch, and draws randomness only from
// hash-keyed decision streams (decisionKey, CongestionFactor) — never
// from shared generators — so shards can run concurrently without
// changing any seeded output. Shared-state effects
// (metric accumulation, co-play recording, egress sums) are described in
// out and applied later by applyEval in canonical player order.
//
//cfg:computephase
func (s *System) computeEval(i int, clock sim.Clock, measured bool, sc *evalScratch, out *evalResult) {
	ps := s.ps
	p := s.players[i]
	link := s.linkForR(p, clock, sc.ensureKeyed())
	commMs, partner, record := s.interactionCommMs(p, clock, sc)

	// Let the rate controller settle against this subcycle's conditions.
	ctrl := &ps.ctrl[i]
	if ps.ctrlOn[i] && s.cfg.Mode == ModeCloudFog && s.cfg.Strategies.Adaptation {
		base := float64(clock.AbsoluteSubcycle()) * 3600
		for k := 0; k < adaptationStepsPerSubcycle; k++ {
			delivered := streaming.DeliveredKbps(link, ctrl.BitrateKbps())
			ctrl.Observe(base+float64(k+1)*adaptationStepSec, delivered)
		}
	}
	bitrate := p.Game.Quality().BitrateKbps
	level := p.Game.DefaultQuality
	if ps.ctrlOn[i] {
		bitrate = ctrl.BitrateKbps()
		level = ctrl.Level()
	}

	// The response loop of a packet is action upload (one-way to the
	// renderer) + render + video downlink. The server-communication term
	// affects state freshness between interacting players and is reported
	// in the response-latency decomposition (Fig. 12), but it does not
	// delay individual video packets, so it stays out of the on-time
	// budget.
	budget := p.Game.LatencyRequirementMs - s.cfg.RenderMs - link.OneWayMs
	pOn := streaming.OnTimeProbability(link, bitrate, budget)
	respMs := link.OneWayMs + commMs + s.cfg.RenderMs +
		streaming.NetworkLatencyMs(link, bitrate) + streaming.PlayoutDelayMs
	if math.IsInf(respMs, 1) {
		respMs = 10 * p.Game.LatencyRequirementMs
	}
	ps.meter[i].Observe(1, pOn)

	if measured {
		// Quantiles come from per-worker scratch histograms: bucket counts
		// are integers, so the post-phase merge is exact in any order.
		sc.ensureHist()
		sc.respHist.Add(respMs)
	}

	*out = evalResult{
		bitrate:       bitrate,
		respMs:        respMs,
		commMs:        commMs,
		level:         level,
		fogServed:     ps.src[i] == srcSupernode,
		cloud:         ps.src[i] == srcCloud,
		coplayPartner: partner,
		coplayRecord:  record,
	}
}

// applyEval commits player i's eval result to shared state: co-play
// recording and the float metric accumulators. Callers invoke it in
// ascending player index — the canonical schedule — so the sequence of
// floating-point Adds is identical whether the compute phase ran on one
// goroutine or many.
//
//cfg:applyphase
func (s *System) applyEval(i int, clock sim.Clock, measured bool, res *evalResult) {
	if res.coplayRecord {
		s.coplay.Record(i, int(res.coplayPartner), clock.Cycle)
	}
	if measured {
		s.metrics.ResponseLatencyMs.Add(res.respMs)
		s.metrics.ServerCommMs.Add(res.commMs)
		s.metrics.QualityLevel.Add(float64(res.level))
		s.metrics.FogServed.Observe(res.fogServed)
	}
}

// setRoute memoises the route from the player's new video source src,
// given the pair's round trip rttMs. netmodel.PathRTTMs is symmetric in its
// endpoints to the bit, so an RTT drawn player→source equals the
// source→player draw the link used to make.
func (s *System) setRoute(p *Player, src *netmodel.Endpoint, rttMs float64) {
	dist := geo.Distance(src.Loc, p.Endpoint.Loc)
	s.ps.route[p.ID] = route{
		oneWayMs: rttMs / 2,
		pathCapKbps: p.Endpoint.DownloadKbps *
			(1 - s.cfg.WideAreaBWPenalty*math.Min(1, dist/wideAreaFullPenaltyKm)),
	}
}

// setCloudRoute memoises the route from the player's own datacenter.
func (s *System) setCloudRoute(p *Player) {
	s.setRoute(p, s.cloud.Datacenters()[s.ps.dc[p.ID]].Endpoint, s.ps.dcRTT[p.ID])
}

// linkForR builds the delivery link of the player's current video source
// from its memoised route, the source's current per-stream share and this
// subcycle's keyed congestion draw; kr is the caller's scratch Rand for
// that draw.
func (s *System) linkForR(p *Player, clock sim.Clock, kr *rng.Rand) streaming.Link {
	ps := s.ps
	perStream := s.cfg.ServerStreamKbps
	switch ps.src[p.ID] {
	case srcSupernode:
		perStream = s.fogMgr.Get(int(ps.supernode[p.ID])).PerStreamKbps()
	case srcCDN:
		srv := s.cdn[ps.cdnServer[p.ID]]
		perStream = srv.Endpoint.UploadKbps / float64(max(1, srv.load))
		if perStream > s.cfg.ServerStreamKbps {
			perStream = s.cfg.ServerStreamKbps
		}
	}
	rt := ps.route[p.ID]
	cong := s.model.CongestionFactor(kr, p.ID, clock.Cycle, clock.Subcycle)
	eff := math.Min(perStream, rt.pathCapKbps) * cong
	return streaming.Link{
		OneWayMs:      rt.oneWayMs,
		EffectiveKbps: eff,
		BaseJitterMs:  streaming.DefaultBaseJitterMs + s.cfg.JitterPerOnewayMs*rt.oneWayMs,
	}
}

// interactionCommMs returns the server-communication component of the
// response latency: the player interacts with a random online friend; if
// their game state lives on different servers, the servers must exchange
// state (§3.4). When the interaction should feed the co-play record that
// infers implicit friendships for the weekly reassignment, it reports the
// partner and record=true; the caller commits the record via applyEval so
// the shared recorder sees one canonical write order.
func (s *System) interactionCommMs(p *Player, clock sim.Clock, sc *evalScratch) (ms float64, partner int32, record bool) {
	sc.friends = s.onlineFriends(p.ID, sc.friends)
	friends := sc.friends
	if len(friends) == 0 {
		return cloudinfra.IntraServerCommMs, -1, false
	}
	rPartner := sc.ensureKeyed()
	rPartner.Reseed(s.decisionKey("partner", p.ID, clock.Cycle, clock.Subcycle))
	partner = friends[rPartner.Intn(len(friends))]
	if s.cfg.Strategies.SocialAssignment && clock.Subcycle == s.ps.session[p.ID].Start {
		// One co-play record per pair per session keeps the window compact.
		record = true
	}
	partnerP := s.players[partner]
	if s.cfg.Mode == ModeCDN {
		return s.cdnPairCommMs(p, partnerP, rPartner), partner, record
	}
	// Cloud-computed state (Cloud and CloudFog): interacting players whose
	// game state lives on the same server exchange state in memory; pairs
	// on different servers pay a server-to-server synchronization round.
	if s.cloud.SameServer(p.ID, partnerP.ID) {
		return cloudinfra.IntraServerCommMs, partner, record
	}
	return cloudinfra.CrossServerCommMs, partner, record
}

// cdnCoordinationFactor discounts the wide-area leg of a cross-edge-server
// state exchange: the exchange is pipelined with gameplay, so only a
// fraction of the one-way latency lands on the response path. CDN servers
// each compute state for their own players, so interacting players on
// different edge servers force a wide-area state exchange between them
// ("the servers need to cooperate with each other to compute new game
// status, which leads to relatively long latency").
const cdnCoordinationFactor = 0.1

// cdnPairCommMs computes the CDN-mode state-exchange cost. kr is scratch
// for the keyed wide-area latency draws (reseeded per use; the partner
// selection that preceded it is already complete).
func (s *System) cdnPairCommMs(p, partner *Player, kr *rng.Rand) float64 {
	ps := s.ps
	hostOf := func(q *Player) *cdnServer {
		if ps.src[q.ID] == srcCDN {
			return s.cdn[ps.cdnServer[q.ID]]
		}
		return nil
	}
	ha, hb := hostOf(p), hostOf(partner)
	switch {
	case ha != nil && hb != nil && ha == hb:
		return cloudinfra.IntraServerCommMs
	case ha != nil && hb != nil:
		return cdnCoordinationFactor*s.model.OneWayMs(kr, ha.Endpoint, hb.Endpoint) +
			cloudinfra.CrossServerCommMs
	case ha == nil && hb == nil:
		// Both players spilled to the cloud: ordinary cloud-server comm.
		if s.cloud.SameServer(p.ID, partner.ID) {
			return cloudinfra.IntraServerCommMs
		}
		return cloudinfra.CrossServerCommMs
	default:
		// One on an edge server, one on the cloud.
		var edge *cdnServer
		var dc int32
		if ha != nil {
			edge, dc = ha, ps.dc[partner.ID]
		} else {
			edge, dc = hb, ps.dc[p.ID]
		}
		return cdnCoordinationFactor*s.model.OneWayMs(kr, edge.Endpoint, s.cloud.Datacenters()[dc].Endpoint) +
			cloudinfra.CrossServerCommMs
	}
}

// decisionKey keys a deterministic stream for a per-player decision by
// purpose, player, and time — independent of how much randomness other
// subsystems consumed, so compared systems make identical draws. Callers
// reseed a scratch Rand with it (rng.Reseed).
func (s *System) decisionKey(purpose string, playerID, cycle, subcycle int) uint64 {
	h := s.cfg.Seed
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h = (h ^ uint64(playerID)) * 0x100000001b3
	h = (h ^ uint64(cycle)) * 0x100000001b3
	h = (h ^ uint64(subcycle)) * 0x100000001b3
	return h
}
