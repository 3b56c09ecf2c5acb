// Package fognet is the runnable networked prototype of the CloudFog
// architecture: a cloud server that owns the authoritative virtual world,
// fog nodes (supernodes) that replicate it and render/stream per-player
// video, and thin player clients — the three tiers of Fig. 1 of the paper,
// speaking internal/protocol over TCP, with video optionally on UDP
// datagrams (internal/transport) from supernode to player.
//
// The prototype is what a downstream adopter would run: the cloud ticks
// the world and fans out compact update batches (the Λ stream), fog nodes
// apply them to replicas, render frames for each attached player's
// viewport, encode them at the player's current Table 2 quality level, and
// stream them; players drive the receiver-driven rate adaptation of §3.3
// against the measured delivery rate.
//
// Supernodes are contributed desktops (§3.2.2), so every tier defends
// itself: the cloud heartbeats supernodes and evicts the silent ones, every
// peer it pushes to sits behind a bounded send queue whose writer carries a
// deadline (link.go: one stalled peer cannot stall the Λ fan-out or
// another peer's admission), fog nodes reconnect to
// the cloud with jittered exponential backoff and resync their replicas,
// and players enforce read deadlines on the video stream and fail over
// down the ladder serving supernode → candidates → cloud fallback.
//
// All components follow the same lifecycle contract: a constructor that
// starts listening, a Start/run goroutine owned by the component, and a
// Close that stops every goroutine and waits for them to exit.
package fognet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/protocol"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
	"cloudfog/internal/transport"
	"cloudfog/internal/virtualworld"
)

// DefaultTickInterval is the idle world tick period (20 Hz): the metronome
// an idle cloud ticks at. An input waits a tenth of it at most.
const DefaultTickInterval = 50 * time.Millisecond

// tickGapDivisor sets the input clock's rate limit: two ticks are never
// less than TickInterval/tickGapDivisor apart, so an action is applied at
// once when the cloud has been quiet that long and at most that much later
// otherwise, together with whatever else arrived meanwhile. The world only
// moves when a player acts, so a tick is purely a batching window and
// running one sooner changes no game speed; the price is one batch header
// per extra tick on every link (DESIGN.md, "Tick pacing", has the
// gap/latency/egress line whose knee picked 10).
const tickGapDivisor = 10

// DefaultCheckpointEvery is the checkpoint cadence in metronome ticks:
// with the default 20 Hz tick the standby receives a full world image once
// a second, and the per-tick delta log covers everything in between.
const DefaultCheckpointEvery = 20

// Liveness and robustness defaults. Tests lower the intervals.
const (
	// DefaultHeartbeatInterval is how often the cloud pings supernodes.
	DefaultHeartbeatInterval = time.Second
	// DefaultHeartbeatMisses is how many unanswered heartbeats evict a
	// supernode.
	DefaultHeartbeatMisses = 3
	// DefaultSendQueueLen bounds each link's outbound queue.
	DefaultSendQueueLen = 64
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = transport.DefaultDialTimeout
)

// DialFunc establishes an outbound connection; it exists so tests and the
// chaos demo can route dials through faultnet injectors. It is the
// transport seam's dial hook.
type DialFunc = transport.DialFunc

// CloudConfig parameterizes a CloudServer.
type CloudConfig struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// TickInterval is the idle world tick period; an input is applied at
	// most a tenth of it after arrival. Defaults to DefaultTickInterval.
	TickInterval time.Duration
	// NPCs seeds the world with this many NPCs on a grid.
	NPCs int
	// HeartbeatInterval is the supernode liveness ping period. Defaults
	// to DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive unanswered heartbeats evict
	// a supernode. Defaults to DefaultHeartbeatMisses.
	HeartbeatMisses int
	// WriteTimeout bounds every protocol write. Defaults to
	// transport.DefaultWriteTimeout.
	WriteTimeout time.Duration
	// SendQueueLen bounds the outbound queue of every link (supernode,
	// standby, player); when it is full, further messages are dropped (and
	// counted) rather than blocking the sender. Defaults to
	// DefaultSendQueueLen.
	SendQueueLen int
	// WrapConn, when set, wraps every accepted connection — the faultnet
	// injection point for chaos tests.
	WrapConn func(net.Conn) net.Conn
	// Seed drives the deterministic tie-break shuffle of the ladder
	// ranking.
	Seed uint64
	// Epoch is the authority epoch this server ticks in. Zero means 1 (a
	// fresh primary); a promoted standby passes its checkpoint epoch + 1
	// so every client can tell a failover happened from the stamps alone.
	Epoch uint64
	// CheckpointEvery is the checkpoint cadence in metronome ticks, so
	// CheckpointEvery × TickInterval of wall time however many input-armed
	// ticks run in between. Defaults to DefaultCheckpointEvery.
	// Checkpoints flow to the attached standby; without one, none are
	// encoded.
	CheckpointEvery int
	// Listener, when set, is used instead of listening on Addr: a
	// promoted standby hands over the listener it already advertised, so
	// resuming clients land on the address they were told before the
	// crash.
	Listener net.Listener
	// Restore, when set, seeds the server from a recovered checkpoint
	// instead of an empty world: entities, tick, ID allocator, player
	// sessions, reputation book, and RNG stream all resume exactly where
	// the checkpoint (plus replayed delta log) left them.
	Restore *checkpoint.State
}

// CloudServer is the authoritative game-state tier.
type CloudServer struct {
	cfg CloudConfig
	// tc is the transport seam's timeout policy: handshake deadlines and
	// write bounds for every accepted connection flow from here.
	tc       transport.Config
	listener net.Listener
	// epoch is the authority epoch; immutable for the server's lifetime
	// (a failover starts a new CloudServer with a higher epoch).
	epoch uint64
	// restoredHash / restoredTick fingerprint the canonical checkpoint
	// state this server was restored from (zero when seeded fresh);
	// immutable after construction.
	restoredHash uint64
	restoredTick uint64

	mu    sync.Mutex
	world *virtualworld.World
	// pending holds the inputs queued since the last tick (guarded by mu);
	// inputCh holds a token only while pending or sessionDeltas is
	// non-empty: wakeTickLocked fills it, for an action or a join's spawn,
	// and tickOnce empties all three under mu.
	pending    []virtualworld.Action
	inputCh    chan struct{}
	supernodes map[uint32]*supernodeConn // guarded by mu
	nextSNID   uint32
	players    map[int32]*link // guarded by mu
	hbSeq      uint32
	// attached is the fallback attach set: each cloud-streamed session's
	// wake channel (slot.wake), signalled by tickOnce when a tick changes
	// that player's avatar.
	attached map[int32]chan struct{} // guarded by mu
	// stats is the storage of the counters Stats reports; the world,
	// membership and immutable figures and the two hot-path atomics are
	// filled in at snapshot time.
	stats CloudStats // guarded by mu

	// standby is the link to the attached warm standby; standbyAddr is
	// what it advertised, stamped into replies so clients know where to
	// resume. Both guarded by mu.
	standby     *link
	standbyAddr string
	// sessionDeltas are membership changes (avatar spawns and removals)
	// accumulated since the last tick, folded into that tick's fan-out
	// and delta-log entry so replicas and the standby track joins and
	// departures exactly. Guarded by mu.
	sessionDeltas []virtualworld.Delta
	// tickDeltas is where tickOnce merges sessionDeltas with Step's
	// output; only the tick loop touches it.
	tickDeltas []virtualworld.Delta
	// resumable holds player IDs recovered from a checkpoint that have
	// not reconnected yet: their avatars live in the restored world and
	// MsgResume re-admits them without a rejoin. Guarded by mu.
	resumable map[int32]bool
	// ckpt is the reused checkpoint capture scratch: state is gathered
	// in place so a checkpoint tick allocates nothing beyond first-time
	// growth. Guarded by mu.
	ckpt checkpoint.State
	// logEntry is the delta-log encode scratch; only the tick loop
	// touches it.
	logEntry checkpoint.LogEntry
	// AoI fan-out state, all tick-loop-owned and reused across ticks so
	// the steady-state fan-out allocates nothing. aoi buckets each tick's
	// deltas by grid cell; fanSNs, keyPlan and keyDeltas are the capture
	// and keyframes tickOnce builds under mu and fanOut reads after it;
	// aoiKeep, aoiIDScratch and aoiCellScratch back the interest
	// recompute and keyframe lookups.
	aoi            aoiPlan
	fanSNs         []*supernodeConn
	keyPlan        []keyItem
	keyDeltas      []virtualworld.Delta
	aoiKeep        []uint64
	aoiIDScratch   []virtualworld.EntityID
	aoiCellScratch []uint32

	// links holds the egress counters every link of this server bumps.
	links linkCounters

	// Live §3.2 selection control plane: QoE reports from players feed
	// book, and candidateInfosLocked ranks the ladder with ranker. addrIDs maps
	// stream addresses to stable reputation IDs so a supernode keeps its
	// history across reconnects (connection IDs are reassigned).
	book       *reputation.GlobalBook
	addrIDs    map[string]int
	nextAddrID int
	ranker     selection.PolicyRanker
	rankRand   *rng.Rand
	started    time.Time

	stop chan struct{}
	wg   sync.WaitGroup
}

// CloudResilience groups the cloud's failure-handling counters.
type CloudResilience struct {
	// Evictions counts supernodes removed for missed heartbeats.
	Evictions int64
	// Departures counts supernodes whose connection simply closed.
	Departures int64
	// HeartbeatsSent / HeartbeatAcks count the liveness traffic.
	HeartbeatsSent int64
	HeartbeatAcks  int64
	// SendQueueDrops counts messages dropped because a link's bounded
	// send queue was full — the stalls that never reached the tick loop.
	SendQueueDrops int64
	// CandidateUpdates counts failover-ladder refreshes queued to
	// players.
	CandidateUpdates int64
	// QoEReports counts player ratings absorbed into the reputation book.
	QoEReports int64
	// Checkpoints counts full world checkpoints encoded for the standby.
	Checkpoints int64
	// StandbyAttaches counts warm standbys that registered.
	StandbyAttaches int64
	// ResumedSupernodes / ResumedPlayers count MsgResume re-admissions —
	// clients that survived a failover without a full rejoin.
	ResumedSupernodes int64
	ResumedPlayers    int64
	// ForwardedActions counts player inputs that arrived via a supernode
	// (buffered at the fog tier during a cloud outage and flushed
	// upstream after recovery).
	ForwardedActions int64
}

// NewCloudServer starts a cloud server listening on cfg.Addr.
func NewCloudServer(cfg CloudConfig) (*CloudServer, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = DefaultTickInterval
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = DefaultHeartbeatMisses
	}
	tc := transport.Config{WriteTimeout: cfg.WriteTimeout}.WithDefaults()
	cfg.WriteTimeout = tc.WriteTimeout
	if cfg.SendQueueLen <= 0 {
		cfg.SendQueueLen = DefaultSendQueueLen
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		// WrapConn is applied in acceptLoop, so a handed-over standby
		// listener gets identical fault injection.
		ln, err = transport.TCP{Config: tc}.Listen(cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("cloud listen: %w", err)
		}
	}
	world := virtualworld.New(virtualworld.DefaultWidth, virtualworld.DefaultHeight)
	book := reputation.NewGlobalBook(reputation.DefaultLambda)
	rankRand := rng.New(cfg.Seed).SplitNamed("cloud-ladder")
	addrIDs := make(map[string]int)
	resumable := make(map[int32]bool)
	var restoredHash, restoredTick uint64
	if cfg.Restore != nil {
		// Resume the recovered authority exactly where the checkpoint
		// (plus any replayed delta log) left it: same entities, tick, ID
		// allocator, sessions, reputation history, and RNG position.
		world = cfg.Restore.RestoreWorld()
		book = reputation.RestoreGlobalBook(cfg.Restore.Book)
		rankRand = rng.Restore(cfg.Restore.RNG)
		for _, a := range cfg.Restore.AddrIDs {
			addrIDs[a.Addr] = int(a.ID)
		}
		for _, id := range cfg.Restore.Sessions {
			resumable[id] = true
		}
		// Fingerprint the restored state (cfg.Restore must be canonical):
		// any independent replay of the same checkpoint+log must land on
		// this exact hash, and failover tests assert that it does.
		restoredHash = checkpoint.Hash(cfg.Restore.AppendTo(nil))
		restoredTick = cfg.Restore.World.Tick
	} else {
		width, height := world.Size()
		for i := 0; i < cfg.NPCs; i++ {
			world.SpawnNPC(
				width*float64(i%4+1)/5,
				height*float64(i/4+1)/5,
			)
		}
	}
	s := &CloudServer{
		cfg:          cfg,
		tc:           tc,
		listener:     ln,
		epoch:        cfg.Epoch,
		restoredHash: restoredHash,
		restoredTick: restoredTick,
		world:        world,
		supernodes:   make(map[uint32]*supernodeConn),
		players:      make(map[int32]*link),
		attached:     make(map[int32]chan struct{}),
		resumable:    resumable,
		nextSNID:     1,
		book:         book,
		addrIDs:      addrIDs,
		// Address IDs are allocated densely and never freed, so the
		// restored allocator position is exactly the table size.
		nextAddrID: len(addrIDs),
		ranker:     selection.PolicyRanker{Policy: selection.PolicyReputation, Scorer: optimisticScorer{book}},
		rankRand:   rankRand,
		started:    time.Now(),
		inputCh:    make(chan struct{}, 1),
		stop:       make(chan struct{}),
	}
	s.wg.Add(3)
	go s.acceptLoop()
	go s.tickLoop()
	go s.heartbeatLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *CloudServer) Addr() string { return s.listener.Addr().String() }

// Close stops the server and waits for all connection goroutines.
func (s *CloudServer) Close() error {
	select {
	case <-s.stop:
		return nil // already closed
	default:
	}
	close(s.stop)
	err := s.listener.Close()
	s.mu.Lock()
	links := s.peerLinksLocked()
	if s.standby != nil {
		links = append(links, s.standby)
	}
	s.mu.Unlock()
	for _, l := range links {
		l.shutdown()
	}
	s.wg.Wait()
	return err
}

// peerLinksLocked lists the link of every supernode and player, with room
// for the standby's. Caller holds mu.
func (s *CloudServer) peerLinksLocked() []*link {
	links := make([]*link, 0, len(s.supernodes)+len(s.players)+1)
	for _, sn := range s.supernodes {
		links = append(links, sn.link)
	}
	for _, pl := range s.players {
		links = append(links, pl)
	}
	return links
}

// Shutdown is the graceful variant of Close: it flushes a final
// checkpoint to the standby, says goodbye to every supernode and player,
// and gives the links one WriteTimeout to drain before tearing the
// sockets down. Safe to call more than once; later calls fall through to
// Close.
func (s *CloudServer) Shutdown() error {
	select {
	case <-s.stop:
		return nil // already closed
	default:
	}
	s.mu.Lock()
	links := s.peerLinksLocked()
	standby := s.standby
	var ckpt *sharedPayload
	if standby != nil {
		ckpt = s.encodeCheckpointLocked(1)
	}
	s.mu.Unlock()

	// An empty-payload Bye per peer through its queue, so it lands after
	// anything already in flight.
	for _, l := range links {
		l.enqueue(outMsg{typ: protocol.MsgBye})
	}
	if standby != nil {
		standby.enqueue(outMsg{typ: protocol.MsgCheckpoint, payload: ckpt.buf.B, shared: ckpt})
		links = append(links, standby)
	}
	// Drain: wait (bounded) for the writers to flush what was queued above
	// before closing their sockets out from under them.
	giveUp := time.NewTimer(s.cfg.WriteTimeout)
	defer giveUp.Stop()
	for _, l := range links {
		if !l.awaitFlushed(giveUp.C) {
			break
		}
	}
	return s.Close()
}

// Stats reports cloud-side counters.
type CloudStats struct {
	// Ticks is how many world ticks ran; InputTicks is how many of them
	// the input clock ran ahead of the metronome; Actions is how many
	// player actions they applied. Actions ÷ InputTicks is the occupancy
	// of an early tick: it grows past the player count only when the rate
	// limit is coalescing.
	Ticks      int64
	InputTicks int64
	Actions    int64
	// Tick is the authoritative world tick (it starts past zero on a
	// restored server).
	Tick uint64
	// Epoch is the authority epoch this server ticks in.
	Epoch uint64
	// StandbyAttached reports whether a warm standby is following.
	StandbyAttached bool
	// RestoredHash / RestoredTick fingerprint the canonical checkpoint
	// state this server was restored from; zero when seeded fresh. Any
	// independent replay of the same checkpoint+log must reproduce
	// RestoredHash exactly.
	RestoredHash uint64
	RestoredTick uint64
	// UpdateBits is the total update-stream egress (the Λ traffic),
	// full-world batches and AoI cell batches combined.
	UpdateBits int64
	// Supernodes is the number of registered supernodes.
	Supernodes int
	// AoISupernodes is how many of them run interest-managed (cell-batch)
	// streams; the rest get the legacy full-world stream.
	AoISupernodes int
	// InterestUpdates counts accepted AoI interest reports: one per fog
	// (re)connect and per attach or detach.
	InterestUpdates int64
	// KeyframeCells counts cell-enter keyframes sent.
	KeyframeCells int64
	// Players is the number of admitted players.
	Players int
	// Entities is the current world entity count.
	Entities int
	// FallbackBits is the video egress of cloud-streamed (fallback)
	// players — the expensive traffic CloudFog exists to avoid.
	FallbackBits int64
	// FallbackPlayers is the number of live cloud-streamed sessions.
	FallbackPlayers int
	// Resilience groups the failure-handling counters.
	Resilience CloudResilience
}

// Stats snapshots the counters.
func (s *CloudServer) Stats() CloudStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Tick = s.world.Tick()
	st.Epoch = s.epoch
	st.StandbyAttached = s.standby != nil
	st.RestoredHash, st.RestoredTick = s.restoredHash, s.restoredTick
	st.UpdateBits = s.links.updateBits.Load()
	st.Resilience.SendQueueDrops = s.links.queueDrops.Load()
	st.Supernodes = len(s.supernodes)
	for _, sn := range s.supernodes {
		if sn.interest != nil {
			st.AoISupernodes++
		}
	}
	st.Players = len(s.players)
	st.Entities = s.world.NumEntities()
	return st
}

func (s *CloudServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if s.cfg.WrapConn != nil {
			conn = s.cfg.WrapConn(conn)
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}
