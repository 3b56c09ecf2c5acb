// Package fognet is the runnable networked prototype of the CloudFog
// architecture: a cloud server that owns the authoritative virtual world,
// fog nodes (supernodes) that replicate it and render/stream per-player
// video, and thin player clients — the three tiers of Fig. 1 of the paper,
// speaking internal/protocol over TCP.
//
// The prototype is what a downstream adopter would run: the cloud ticks
// the world and fans out compact update batches (the Λ stream), fog nodes
// apply them to replicas, render frames for each attached player's
// viewport, encode them at the player's current Table 2 quality level, and
// stream them; players drive the receiver-driven rate adaptation of §3.3
// against the measured delivery rate.
//
// Supernodes are contributed desktops (§3.2.2), so every tier defends
// itself: the cloud heartbeats supernodes and evicts the silent ones, the
// per-supernode send queues are bounded and writes carry deadlines (one
// stalled supernode cannot stall the Λ fan-out), fog nodes reconnect to
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
	"cloudfog/internal/transport"
	"cloudfog/internal/virtualworld"
)

// DefaultTickInterval is the idle world tick period (20 Hz): the metronome
// an idle cloud ticks at, and the longest an input ever waits.
const DefaultTickInterval = 50 * time.Millisecond

// inputWindowDivisor sets the input-armed clock: the action that makes the
// pending queue non-empty is applied TickInterval/inputWindowDivisor later
// at most, together with whatever else arrived inside that window. The
// world only moves when a player acts, so a tick is purely a batching
// window and running one sooner changes no game speed; the price is one
// batch header per extra tick on full-world links (DESIGN.md, "Tick
// pacing", has the window/latency/egress trade that picked 3).
const inputWindowDivisor = 3

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
	// DefaultSendQueueLen bounds the per-supernode outbound queue.
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
	// most a third of it after arrival. Defaults to DefaultTickInterval.
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
	// SendQueueLen bounds the per-supernode outbound queue; when it is
	// full, further messages are dropped (and counted) rather than
	// blocking the tick loop. Defaults to DefaultSendQueueLen.
	SendQueueLen int
	// WrapConn, when set, wraps every accepted connection — the faultnet
	// injection point for chaos tests.
	WrapConn func(net.Conn) net.Conn
	// SelectionPolicy ranks the candidate ladders pushed to players
	// (§3.2 via internal/selection). Defaults to
	// selection.PolicyReputation, scoring supernodes by the cloud's live
	// QoE book.
	SelectionPolicy selection.Policy
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
	// inputCh holds a token exactly while pending is non-empty and the tick
	// loop has not yet armed its early timer for it: queueActionLocked
	// fills it, tickOnce empties both under mu.
	pending    []virtualworld.Action
	inputCh    chan struct{}
	supernodes map[uint32]*supernodeConn // guarded by mu
	nextSNID   uint32
	players    map[int32]*playerConn // guarded by mu
	hbSeq      uint32
	// stats is the storage of the counters Stats reports; the world,
	// membership and immutable figures and the two hot-path atomics are
	// filled in at snapshot time.
	stats CloudStats // guarded by mu

	// standby is the attached warm standby, fed through the same bounded
	// queue + coalescing writer machinery as a supernode; standbyAddr is
	// what it advertised, stamped into replies so clients know where to
	// resume. Both guarded by mu.
	standby     *supernodeConn
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
	// AoI fan-out state. aoi buckets each tick's deltas by grid cell;
	// fanSNs, keyPlan, and keyDeltas are tick-loop capture/keyframe
	// scratch, all reused across ticks so the steady-state fan-out
	// allocates nothing. aoiIDScratch/aoiCellScratch back the keyframe
	// and interest-widening lookups. Only keyframe gathering and the
	// interest counters run under mu; the rest is tick-loop-owned.
	aoi            aoiPlan
	fanSNs         []fanSN
	keyPlan        []keyItem
	keyDeltas      []virtualworld.Delta
	aoiIDScratch   []virtualworld.EntityID
	aoiCellScratch []uint32

	// Hot-path counters live outside mu: the per-supernode writer
	// goroutines and the non-blocking enqueue bump them on every tick
	// fan-out, and taking the server mutex there would make the writers
	// contend with the tick loop itself.
	updateBits atomic.Int64
	queueDrops atomic.Int64

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
	// SendQueueDrops counts messages dropped because a supernode's
	// bounded send queue was full — the stalls that never reached the
	// tick loop.
	SendQueueDrops int64
	// CandidateUpdates counts failover-ladder refreshes pushed to
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

// sharedPayload is a reference-counted pooled payload fanned out to many
// per-supernode send queues at once (the tick's update batch, the
// heartbeat ping). The encode buffer returns to the protocol pool only
// when the last writer has flushed it — the pool-lifecycle rule of
// DESIGN.md §10. Refs lost to a dying writer (messages still queued when
// the connection closes) simply strand the buffer for the GC; the pool
// never sees a buffer that anyone might still read.
type sharedPayload struct {
	buf  *protocol.Buffer
	refs atomic.Int32
}

var sharedPayloadPool = sync.Pool{New: func() any { return &sharedPayload{} }}

// newSharedPayload takes a pooled buffer and arms it for refs readers.
// Pool refills amortize to zero in steady state.
func newSharedPayload(refs int) *sharedPayload {
	sp := sharedPayloadPool.Get().(*sharedPayload)
	sp.buf = protocol.GetBuffer()
	sp.refs.Store(int32(refs))
	return sp
}

// release drops one reference; the last one returns both the buffer and
// the wrapper to their pools.
func (sp *sharedPayload) release() {
	if sp == nil {
		return
	}
	if sp.refs.Add(-1) == 0 {
		protocol.PutBuffer(sp.buf)
		sp.buf = nil
		sharedPayloadPool.Put(sp)
	}
}

// outMsg is one queued message for a supernode writer. payload aliases
// shared.buf.B when shared is non-nil; the writer must release(shared)
// only after the payload has been flushed (or dropped).
type outMsg struct {
	typ     protocol.MsgType
	payload []byte
	shared  *sharedPayload
}

type supernodeConn struct {
	id         uint32
	name       string
	streamAddr string
	capacity   int
	conn       net.Conn
	sendQ      chan outMsg
	done       chan struct{}
	stopOnce   sync.Once
	// inflight counts the messages enqueue accepted that the writer has
	// not yet flushed: queued, or already drained and inside a Write.
	// idle gets a token each time the count returns to zero.
	inflight atomic.Int32
	idle     chan struct{}
	// missed counts consecutive unanswered heartbeats (cloud mu).
	missed int
	// lastAttached is the player count from the latest heartbeat ack
	// (cloud mu) — the load the ladder ranking sorts by.
	lastAttached int
	// interest is the supernode's AoI cell subscription, nil until the fog
	// reports one (nil = legacy full-world stream). The set itself is
	// immutable; updates swap the pointer (cloud mu).
	interest *interestSet
	// pendingKey lists cells gained by the latest interest update, each
	// owed a full-state keyframe on the next tick (cloud mu).
	pendingKey []uint32
}

// playerConn is a player's control connection; sendMu serializes the
// cloud's pushes (join reply, candidate updates) onto it.
type playerConn struct {
	conn   net.Conn
	sendMu sync.Mutex
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
	if cfg.SelectionPolicy == 0 {
		cfg.SelectionPolicy = selection.PolicyReputation
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
		players:      make(map[int32]*playerConn),
		resumable:    resumable,
		nextSNID:     1,
		book:         book,
		addrIDs:      addrIDs,
		// Address IDs are allocated densely and never freed, so the
		// restored allocator position is exactly the table size.
		nextAddrID: len(addrIDs),
		ranker:     selection.PolicyRanker{Policy: cfg.SelectionPolicy, Scorer: optimisticScorer{book}},
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
	sns := make([]*supernodeConn, 0, len(s.supernodes)+1)
	for _, sn := range s.supernodes {
		sns = append(sns, sn)
	}
	if s.standby != nil {
		sns = append(sns, s.standby)
	}
	for _, p := range s.players {
		p.conn.Close()
	}
	s.mu.Unlock()
	for _, sn := range sns {
		sn.shutdown()
	}
	s.wg.Wait()
	return err
}

// Shutdown is the graceful variant of Close: it flushes a final
// checkpoint to the standby, says goodbye to every supernode and player,
// and gives the writer queues one WriteTimeout to drain before tearing
// the sockets down. Safe to call more than once; later calls fall
// through to Close.
func (s *CloudServer) Shutdown() error {
	select {
	case <-s.stop:
		return nil // already closed
	default:
	}
	s.mu.Lock()
	standby := s.standby
	var ckpt *sharedPayload
	if standby != nil {
		ckpt = s.encodeCheckpointLocked(1)
	}
	sns := make([]*supernodeConn, 0, len(s.supernodes))
	for _, sn := range s.supernodes {
		sns = append(sns, sn)
	}
	players := make([]*playerConn, 0, len(s.players))
	for _, p := range s.players {
		players = append(players, p)
	}
	s.mu.Unlock()

	if standby != nil {
		s.enqueue(standby, outMsg{typ: protocol.MsgCheckpoint, payload: ckpt.buf.B, shared: ckpt})
	}
	if len(sns) > 0 {
		// An empty-payload Bye per supernode through the normal queues,
		// so it lands after anything already in flight.
		for _, sn := range sns {
			s.enqueue(sn, outMsg{typ: protocol.MsgBye})
		}
	}
	for _, p := range players {
		p.sendMu.Lock()
		_ = sendMsg(p.conn, s.cfg.WriteTimeout, protocol.MsgBye, nil) // best effort: Close below ends the session regardless
		p.sendMu.Unlock()
	}
	// Drain: wait (bounded) for the coalescing writers to flush what was
	// queued above before closing their sockets out from under them. An
	// empty queue is not a flushed one — the writer moves messages out of
	// it before the Write that may block — so the wait is on inflight.
	giveUp := time.NewTimer(s.cfg.WriteTimeout)
	defer giveUp.Stop()
	if standby != nil {
		sns = append(sns, standby)
	}
	for _, sn := range sns {
		if !sn.awaitFlushed(giveUp.C) {
			break
		}
	}
	return s.Close()
}

// settle retires n messages that enqueue counted: flushed by the writer,
// or refused by a full queue.
func (sn *supernodeConn) settle(n int) {
	if sn.inflight.Add(-int32(n)) == 0 {
		select {
		case sn.idle <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// awaitFlushed blocks until every message enqueue accepted has been
// written or the link has died, and reports false if giveUp fires first.
func (sn *supernodeConn) awaitFlushed(giveUp <-chan time.Time) bool {
	for sn.inflight.Load() > 0 {
		select {
		case <-sn.idle:
		case <-sn.done:
			return true
		case <-giveUp:
			return false
		}
	}
	return true
}

// shutdown stops the supernode's writer and closes its connection; safe to
// call more than once.
func (sn *supernodeConn) shutdown() {
	sn.stopOnce.Do(func() { close(sn.done) })
	sn.conn.Close()
}

// Stats reports cloud-side counters.
type CloudStats struct {
	// Ticks is how many world ticks ran; InputTicks is how many of them
	// the input-armed clock ran ahead of the metronome.
	Ticks      int64
	InputTicks int64
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
	// InterestUpdates counts accepted AoI subscription changes.
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
	// FallbackFrames is the total frames the cloud rendered itself, and
	// FallbackFullEncodes how many of them were encoded with every tile
	// dirty (FogStats.FullEncodes, for the fallback stream).
	FallbackFrames      int64
	FallbackFullEncodes int64
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
	st.UpdateBits = s.updateBits.Load()
	st.Resilience.SendQueueDrops = s.queueDrops.Load()
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

// tickLoop advances the world and fans out update batches on two clocks.
// The metronome ticks every TickInterval whether or not anything happened
// and is the only tick an idle cloud runs. The input-armed clock is a
// one-shot timer the first queued action starts: it runs the same tickOnce
// a fraction of the interval later, so an input waits for a short
// coalescing window instead of for the metronome. Whichever fires first
// takes everything pending; a metronome tick disarms the early timer.
func (s *CloudServer) tickLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.TickInterval)
	defer ticker.Stop()
	window := s.cfg.TickInterval / inputWindowDivisor
	early := time.NewTimer(window)
	defer early.Stop()
	// armed: early was Reset and its channel not yet received from. go.mod
	// predates go 1.23, so a stopped timer that already fired keeps its
	// value buffered; whoever disarms it must drain it, or the next arm
	// would tick at once.
	armed := true
	disarm := func() {
		if armed && !early.Stop() {
			<-early.C
		}
		armed = false
	}
	disarm()
	for {
		select {
		case <-s.stop:
			return
		case <-s.inputCh:
			if !armed {
				early.Reset(window)
				armed = true
			}
		case <-early.C:
			armed = false
			s.tickOnce(false)
		case <-ticker.C:
			disarm()
			s.tickOnce(true)
		}
	}
}

// queueActionLocked is the one intake of player inputs, whichever link
// they arrived on: an action naming no admitted avatar is refused, and the
// one that makes pending non-empty arms the tick loop's early timer.
// Caller holds mu.
func (s *CloudServer) queueActionLocked(a virtualworld.Action) bool {
	if s.world.Avatar(a.Player) == nil {
		return false
	}
	s.pending = append(s.pending, a)
	if len(s.pending) == 1 {
		select {
		case s.inputCh <- struct{}{}:
		default: // a token is already waiting for the loop
		}
	}
	return true
}

// tickOnce runs one world tick — numbered, logged and fanned out the same
// whichever clock asked for it; metronome only decides whether the tick
// counts toward the checkpoint cadence.
func (s *CloudServer) tickOnce(metronome bool) {
	s.mu.Lock()
	// Step copies its argument before use, so pending is truncated and
	// reused. The arming token goes with it: this tick serves the inputs
	// it announced.
	deltas := s.world.Step(s.pending)
	s.pending = s.pending[:0]
	select {
	case <-s.inputCh:
	default:
	}
	nSession := len(s.sessionDeltas)
	if nSession > 0 {
		// Fold membership changes (avatar spawns, departures) into the
		// tick's delta stream so replicas and the standby's log both see
		// them; Step's own deltas follow and overwrite where they overlap.
		// Copied into the tick loop's own buffer while the lock is held:
		// the fan-out reads it after the unlock, when joins and departures
		// are already appending to sessionDeltas again.
		s.tickDeltas = append(append(s.tickDeltas[:0], s.sessionDeltas...), deltas...)
		deltas = s.tickDeltas
		s.sessionDeltas = s.sessionDeltas[:0]
	}
	s.stats.Ticks++
	if !metronome {
		s.stats.InputTicks++
	}
	tick := s.world.Tick()
	nextID := s.world.NextID()
	geo := s.world.Grid().Geom()
	// Capture the fan-out targets and each one's interest set into the
	// reused scratch: after the unlock the tick loop reads only this
	// capture (interest sets are immutable once installed).
	s.fanSNs = s.fanSNs[:0]
	for _, sn := range s.supernodes {
		s.fanSNs = append(s.fanSNs, fanSN{sn: sn, interest: sn.interest})
	}
	// Gather pending cell-enter keyframes while the lock is held: the
	// payload is the cell's current (post-Step) entity population, read
	// straight off the world grid.
	s.keyPlan = s.keyPlan[:0]
	s.keyDeltas = s.keyDeltas[:0]
	for _, f := range s.fanSNs {
		for _, c := range f.sn.pendingKey {
			off := int32(len(s.keyDeltas))
			s.keyDeltas = s.appendCellStateLocked(s.keyDeltas, c)
			s.keyPlan = append(s.keyPlan, keyItem{sn: f.sn, cell: c, off: off, n: int32(len(s.keyDeltas)) - off})
			s.stats.KeyframeCells++
		}
		f.sn.pendingKey = f.sn.pendingKey[:0]
	}
	standby := s.standby
	var ckpt *sharedPayload
	if metronome && standby != nil && (s.stats.Ticks-s.stats.InputTicks)%int64(s.cfg.CheckpointEvery) == 0 {
		// Capture right after Step, while no actions are pending: the
		// checkpoint is a clean tick boundary. Only metronome ticks count
		// toward the cadence: the O(world) capture under mu and its payload
		// stay CheckpointEvery × TickInterval apart however busy the input
		// clock is, and the early ticks stay O(actions).
		ckpt = s.encodeCheckpointLocked(1)
	}
	s.mu.Unlock()
	s.fanOut(tick, nextID, geo, deltas, nSession, standby, ckpt)
}

// fanOut is the half of a tick that runs after the unlock: it encodes what
// tickOnce captured — the standby's log entry and checkpoint, the pending
// cell keyframes in keyPlan/keyDeltas, then the tick's deltas as one
// full-world batch for legacy supernodes and per-cell batches for the AoI
// ones in fanSNs — and enqueues each payload to its recipients. It reads
// only its arguments and tick-loop-owned scratch, and allocates nothing
// once that scratch and the payload pools are warm.
func (s *CloudServer) fanOut(tick uint64, nextID virtualworld.EntityID, geo virtualworld.GridGeom, deltas []virtualworld.Delta, nSession int, standby *supernodeConn, ckpt *sharedPayload) {
	if standby != nil {
		// One delta-log entry per tick, even when empty: the entry stream
		// doubles as the liveness signal the standby's promotion timer
		// watches. The standby always gets the full-world stream — it must
		// be able to take over for every cell.
		s.logEntry.Epoch = s.epoch
		s.logEntry.Tick = tick
		s.logEntry.NextID = nextID
		s.logEntry.Deltas = deltas
		lp := newSharedPayload(1)
		lp.buf.B = s.logEntry.AppendTo(lp.buf.B[:0])
		s.logEntry.Deltas = nil
		s.enqueue(standby, outMsg{typ: protocol.MsgLogEntry, payload: lp.buf.B, shared: lp})
		if ckpt != nil {
			s.enqueue(standby, outMsg{typ: protocol.MsgCheckpoint, payload: ckpt.buf.B, shared: ckpt})
		}
	}

	// Cell-enter keyframes flush even on quiet ticks: a fog that just
	// subscribed must not wait for the cell to change before seeing it.
	for _, k := range s.keyPlan {
		kb := protocol.CellBatch{Epoch: s.epoch, Tick: tick, Cell: k.cell,
			Keyframe: true, Deltas: s.keyDeltas[k.off : k.off+k.n]}
		sp := newSharedPayload(1)
		sp.buf.B = kb.AppendTo(sp.buf.B[:0])
		s.enqueue(k.sn, outMsg{typ: protocol.MsgCellBatch, payload: sp.buf.B, shared: sp})
	}

	if len(deltas) == 0 || len(s.fanSNs) == 0 {
		return
	}
	aoiCount := 0
	for _, f := range s.fanSNs {
		if f.interest != nil {
			aoiCount++
		}
	}
	if n := len(s.fanSNs) - aoiCount; n > 0 {
		// Legacy path for supernodes with no interest set: the full batch,
		// encoded once into a pooled, reference-counted buffer shared by
		// every such queue, exactly as before AoI existed.
		batch := protocol.UpdateBatch{Epoch: s.epoch, Tick: tick, Deltas: deltas}
		sp := newSharedPayload(n)
		sp.buf.B = batch.AppendTo(sp.buf.B[:0])
		for _, f := range s.fanSNs {
			if f.interest != nil {
				continue
			}
			// Enqueue only: the per-supernode writer goroutine does the
			// blocking work, so a stalled supernode can never stall this
			// fan-out.
			s.enqueue(f.sn, outMsg{typ: protocol.MsgUpdateBatch, payload: sp.buf.B, shared: sp})
		}
	}
	if aoiCount == 0 {
		return
	}
	// AoI fan-out: bucket the tick's deltas by grid cell once, then encode
	// each dirty cell once and hand it only to the supernodes subscribed
	// to that cell. Per-tick cost is O(deltas + dirty cells × supernodes),
	// independent of world size.
	s.aoi.build(geo, deltas, nSession)
	if len(s.aoi.global) > 0 {
		// Position-less deltas (removals, session events) go to every AoI
		// subscriber under the CellNone sentinel.
		gb := protocol.CellBatch{Epoch: s.epoch, Tick: tick,
			Cell: virtualworld.CellNone, Deltas: s.aoi.global}
		sp := newSharedPayload(aoiCount)
		sp.buf.B = gb.AppendTo(sp.buf.B[:0])
		for _, f := range s.fanSNs {
			if f.interest != nil {
				s.enqueue(f.sn, outMsg{typ: protocol.MsgCellBatch, payload: sp.buf.B, shared: sp})
			}
		}
	}
	for i := 0; i < s.aoi.numDirty(); i++ {
		cell := s.aoi.cell(i)
		subs := 0
		for _, f := range s.fanSNs {
			if f.interest != nil && f.interest.has(cell) {
				subs++
			}
		}
		if subs == 0 {
			continue // nobody watches this cell: zero encode, zero gather
		}
		_, cd := s.aoi.cellDeltas(i)
		cb := protocol.CellBatch{Epoch: s.epoch, Tick: tick, Cell: cell, Deltas: cd}
		sp := newSharedPayload(subs)
		sp.buf.B = cb.AppendTo(sp.buf.B[:0])
		for _, f := range s.fanSNs {
			if f.interest != nil && f.interest.has(cell) {
				s.enqueue(f.sn, outMsg{typ: protocol.MsgCellBatch, payload: sp.buf.B, shared: sp})
			}
		}
	}
}

// encodeCheckpointLocked captures the full authoritative state — world,
// ID allocator, player sessions, address→reputation-ID table, QoE book,
// and ladder RNG — into the reused checkpoint scratch and encodes it
// into a fresh shared payload armed for refs readers. Caller holds mu.
func (s *CloudServer) encodeCheckpointLocked(refs int) *sharedPayload {
	st := &s.ckpt
	st.Epoch = s.epoch
	s.world.SnapshotInto(&st.World)
	st.NextID = s.world.NextID()
	st.Sessions = st.Sessions[:0]
	for id := range s.players {
		st.Sessions = append(st.Sessions, id)
	}
	for id := range s.resumable {
		// Sessions recovered from the previous epoch that have not
		// resumed yet stay resumable across chained failovers.
		if _, live := s.players[id]; !live {
			st.Sessions = append(st.Sessions, id)
		}
	}
	st.AddrIDs = st.AddrIDs[:0]
	for addr, id := range s.addrIDs {
		st.AddrIDs = append(st.AddrIDs, checkpoint.AddrID{Addr: addr, ID: int32(id)})
	}
	s.book.StateInto(&st.Book)
	st.RNG = s.rankRand.State()
	st.Canonicalize()
	s.stats.Resilience.Checkpoints++
	sp := newSharedPayload(refs)
	sp.buf.B = st.AppendTo(sp.buf.B[:0])
	return sp
}

// enqueue offers a message to the supernode's bounded send queue without
// ever blocking; full queues drop (and count) the message, releasing its
// shared-payload reference.
func (s *CloudServer) enqueue(sn *supernodeConn, m outMsg) bool {
	sn.inflight.Add(1)
	select {
	case sn.sendQ <- m:
		return true
	default:
		sn.settle(1)
		m.shared.release()
		s.queueDrops.Add(1)
		return false
	}
}

// snWriter is the single writer for one supernode connection: it sleeps
// until something is queued and hands it to flushQueued. The first
// failure closes the connection, which the read loop observes and
// unregisters.
func (s *CloudServer) snWriter(sn *supernodeConn) {
	defer s.wg.Done()
	var pending []outMsg // reused drain list
	for {
		select {
		case <-sn.done:
			return
		case m := <-sn.sendQ:
			var err error
			if pending, err = s.flushQueued(sn, append(pending[:0], m)); err != nil {
				sn.conn.Close()
				return
			}
		}
	}
}

// flushQueued is one wake-up of the writer, and it coalesces: it drains
// everything queued behind pending, appends each message's frame into one
// pooled buffer, and flushes it with a single deadlined Write — a
// supernode that fell a few messages behind costs one syscall to catch
// up, not one per message. It returns the emptied list for reuse.
func (s *CloudServer) flushQueued(sn *supernodeConn, pending []outMsg) ([]outMsg, error) {
drain:
	for {
		select {
		case m := <-sn.sendQ:
			pending = append(pending, m)
		default:
			break drain
		}
	}
	buf := protocol.GetBuffer()
	var batchBits int64
	var err error
	for _, m := range pending {
		if buf.B, err = protocol.AppendFrame(buf.B, m.typ, m.payload); err != nil {
			break
		}
		if m.typ == protocol.MsgUpdateBatch || m.typ == protocol.MsgCellBatch {
			batchBits += int64(len(m.payload)+protocol.HeaderLen) * 8
		}
	}
	if err == nil {
		err = writeWithin(sn.conn, s.cfg.WriteTimeout, buf.B)
	}
	// Flush (or failure) done: drop the shared-payload references,
	// then the scratch buffer.
	for i := range pending {
		pending[i].shared.release()
		pending[i] = outMsg{}
	}
	protocol.PutBuffer(buf)
	if err == nil {
		s.updateBits.Add(batchBits)
		sn.settle(len(pending))
	}
	return pending[:0], err
}

// heartbeatLoop pings every supernode each interval and evicts the ones
// that miss cfg.HeartbeatMisses consecutive replies (§3.2.2: supernodes
// are unreliable contributed desktops; the cloud must notice churn).
func (s *CloudServer) heartbeatLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.heartbeatOnce()
		}
	}
}

func (s *CloudServer) heartbeatOnce() {
	s.mu.Lock()
	s.hbSeq++
	seq := s.hbSeq
	var ping, evict []*supernodeConn
	for _, sn := range s.supernodes {
		if sn.missed >= s.cfg.HeartbeatMisses {
			evict = append(evict, sn)
			continue
		}
		sn.missed++
		ping = append(ping, sn)
	}
	s.stats.Resilience.HeartbeatsSent += int64(len(ping))
	s.mu.Unlock()

	if len(ping) > 0 {
		sp := newSharedPayload(len(ping))
		sp.buf.B = protocol.Heartbeat{Seq: seq}.AppendTo(sp.buf.B[:0])
		for _, sn := range ping {
			s.enqueue(sn, outMsg{typ: protocol.MsgHeartbeat, payload: sp.buf.B, shared: sp})
		}
	}
	for _, sn := range evict {
		s.unregisterSupernode(sn, true)
	}
}

// unregisterSupernode removes a supernode (eviction or departure), stops
// its writer, and pushes the refreshed candidate ladder to every player.
func (s *CloudServer) unregisterSupernode(sn *supernodeConn, evicted bool) {
	s.mu.Lock()
	cur, present := s.supernodes[sn.id]
	if present && cur == sn {
		delete(s.supernodes, sn.id)
		if evicted {
			s.stats.Resilience.Evictions++
		} else {
			s.stats.Resilience.Departures++
		}
	} else {
		present = false
	}
	s.mu.Unlock()
	sn.shutdown()
	if present {
		s.broadcastCandidates()
	}
}

// optimisticScorer scores supernodes by the cloud's QoE book with an
// optimistic prior: a supernode nobody has reported on yet scores 0.5,
// between proven-good (→1) and proven-bad (→0). Unknowns are therefore
// tried before demoted supernodes but after established ones — without the
// prior, a freshly-stalled supernode (score ~0) would be indistinguishable
// from a brand-new one.
type optimisticScorer struct{ book *reputation.GlobalBook }

// unknownScore is the prior for supernodes with no QoE reports.
const unknownScore = 0.5

func (o optimisticScorer) Score(id, today int) float64 {
	if o.book.NumRatings(id) == 0 {
		return unknownScore
	}
	return o.book.Score(id, today)
}

// qoeDayMinutes is the wall-clock length of one reputation "day": the
// aging unit of Eq. 7, compressed so a long-running cloud forgets old
// incidents within the hour rather than within the week.
const qoeDayMinutes = 1

// day is the cloud's reputation clock (mu not required).
func (s *CloudServer) day() int {
	return int(time.Since(s.started).Minutes()) / qoeDayMinutes
}

// addrID returns the stable reputation ID for a stream address, allocating
// one on first sight (caller holds mu). Keyed by address, not connection
// ID, so a supernode keeps its reputation across reconnects.
func (s *CloudServer) addrID(addr string) int {
	id, ok := s.addrIDs[addr]
	if !ok {
		id = s.nextAddrID
		s.nextAddrID++
		s.addrIDs[addr] = id
	}
	return id
}

// candidateInfosLocked snapshots the current failover ladder — the caller
// must hold mu — ranked by
// the shared §3.2 pipeline: candidates carry their last-acked load,
// advertised capacity, and live QoE score, ordered best-first by the
// configured policy (the alphabetical sort this replaces ignored all
// three). Candidates are pre-sorted by stable ID so the deterministic
// tie-break shuffle is meaningful despite map iteration order.
func (s *CloudServer) candidateInfosLocked() []protocol.CandidateInfo {
	cands := make([]selection.Candidate, 0, len(s.supernodes))
	for _, sn := range s.supernodes {
		cands = append(cands, selection.Candidate{
			ID:       s.addrID(sn.streamAddr),
			Addr:     sn.streamAddr,
			Load:     sn.lastAttached,
			Capacity: sn.capacity,
			RTTMs:    -1, // the cloud cannot ping on the player's behalf
		})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	s.ranker.Rank(cands, s.day(), s.rankRand)
	out := make([]protocol.CandidateInfo, len(cands))
	for i, c := range cands {
		out[i] = protocol.CandidateInfo{
			Addr:          c.Addr,
			Load:          uint16(c.Load),
			Capacity:      uint16(c.Capacity),
			MeasuredRTTMs: -1,
			Score:         c.Score,
		}
	}
	return out
}

// Candidates returns the current ranked failover ladder — what the next
// joining player would receive. Exposed for tests and operational
// inspection.
func (s *CloudServer) Candidates() []protocol.CandidateInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.candidateInfosLocked()
}

// recordQoE absorbs a player's rating into the reputation book. Stall and
// fallback reports re-rank the ladder immediately and push it to every
// player; periodic healthy reports wait for the next natural refresh.
func (s *CloudServer) recordQoE(rep protocol.QoEReport) {
	s.mu.Lock()
	// An address never seen as a supernode is a bogus or stale report;
	// absorbing it would let players mint reputation IDs.
	id, known := s.addrIDs[rep.Addr]
	if known {
		s.book.Rate(id, rep.Rating, s.day())
		s.stats.Resilience.QoEReports++
	}
	s.mu.Unlock()
	if known && (rep.Stalled || rep.Fallback) {
		s.broadcastCandidates()
	}
}

// broadcastCandidates pushes the current ladder to every admitted player,
// best-effort with write deadlines, so migrations never chase a stale
// address list.
func (s *CloudServer) broadcastCandidates() {
	s.mu.Lock()
	update := protocol.CandidateUpdate{
		Candidates:      s.candidateInfosLocked(),
		CloudStreamAddr: s.Addr(),
		StandbyAddr:     s.standbyAddr,
	}
	players := make([]*playerConn, 0, len(s.players))
	for _, p := range s.players {
		players = append(players, p)
	}
	sns := make([]*supernodeConn, 0, len(s.supernodes))
	for _, sn := range s.supernodes {
		sns = append(sns, sn)
	}
	s.mu.Unlock()
	// One pooled buffer holds the framed update for every player; the
	// writes are synchronous, so it goes back to the pool after the loop.
	buf := protocol.GetBuffer()
	defer protocol.PutBuffer(buf)
	var err error
	if buf.B, err = protocol.AppendMessage(buf.B[:0], protocol.MsgCandidateUpdate, &update); err != nil {
		return
	}
	var sent int64
	for _, p := range players {
		p.sendMu.Lock()
		err := writeWithin(p.conn, s.cfg.WriteTimeout, buf.B)
		p.sendMu.Unlock()
		if err == nil {
			sent++
		}
	}
	// Supernodes get the same update through their coalescing queues —
	// they only care about StandbyAddr (the failover rung their own
	// reconnect ladder needs), but a stale ladder is how a supernode ends
	// up orphaned after a failover, so keep them current too.
	if len(sns) > 0 {
		update.Candidates = nil // framed fresh: candidates are for players
		sp := newSharedPayload(len(sns))
		sp.buf.B = update.AppendTo(sp.buf.B[:0])
		for _, sn := range sns {
			s.enqueue(sn, outMsg{typ: protocol.MsgCandidateUpdate, payload: sp.buf.B, shared: sp})
		}
	}
	s.mu.Lock()
	s.stats.Resilience.CandidateUpdates += sent
	s.mu.Unlock()
}

// handleConn reads the first message under the handshake deadline — a
// silent connection cannot pin this goroutine — and dispatches on it:
// supernode or player admission (fresh or resumed), a standby attaching,
// or a probe opening a fallback video session.
func (s *CloudServer) handleConn(conn net.Conn) {
	defer s.wg.Done()
	fr := protocol.NewFrameReader(conn)
	conn.SetReadDeadline(time.Now().Add(s.tc.HandshakeTimeout))
	typ, payload, err := fr.Next()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	switch typ {
	case protocol.MsgSupernodeHello:
		if hello, herr := protocol.UnmarshalSupernodeHello(payload); herr == nil {
			s.admitSupernode(conn, fr, hello, nil)
			return
		}
	case protocol.MsgPlayerJoin:
		if join, jerr := protocol.UnmarshalPlayerJoin(payload); jerr == nil {
			s.admitPlayer(conn, fr, join, nil)
			return
		}
	case protocol.MsgResume:
		// Epoch-stamped resumption: the post-failover path that lets
		// supernodes and players continue on a promoted standby without a
		// full rejoin. Same admission, different source of the fields.
		req, rerr := protocol.UnmarshalResume(payload)
		switch {
		case rerr != nil:
		case req.Kind == protocol.ResumeSupernode:
			s.admitSupernode(conn, fr, protocol.SupernodeHello{Name: req.Name,
				Capacity: req.Capacity, StreamAddr: req.StreamAddr}, &req)
			return
		case req.Kind == protocol.ResumePlayer:
			s.admitPlayer(conn, fr, protocol.PlayerJoin{PlayerID: req.PlayerID}, &req)
			return
		}
	case protocol.MsgStandbyHello:
		if hello, herr := protocol.UnmarshalStandbyHello(payload); herr == nil {
			s.serveStandby(conn, fr, hello)
			return
		}
	case protocol.MsgProbe:
		// Fallback streaming session: the cloud itself renders for
		// players no supernode accepted. The cloud never refuses —
		// it is the last resort (and the bandwidth bill shows it).
		s.serveFallbackStream(conn, fr)
		return
	}
	conn.Close()
}

// serveStandby attaches a warm standby: it gets an immediate full
// checkpoint, then every tick's delta-log entry (and periodic fresh
// checkpoints) through the same bounded-queue coalescing writer a
// supernode uses. A newer standby replaces an older one.
func (s *CloudServer) serveStandby(conn net.Conn, fr *protocol.FrameReader, hello protocol.StandbyHello) {
	sb := &supernodeConn{
		name:       "standby",
		streamAddr: hello.Addr,
		conn:       conn,
		sendQ:      make(chan outMsg, s.cfg.SendQueueLen),
		done:       make(chan struct{}),
		idle:       make(chan struct{}, 1),
	}
	s.mu.Lock()
	prev := s.standby
	s.standby = sb
	s.standbyAddr = hello.Addr
	s.stats.Resilience.StandbyAttaches++
	// Seed the follower inside the same critical section that installs
	// it: the queue is empty, so the checkpoint is guaranteed to precede
	// any log entry the tick loop enqueues afterwards.
	ckpt := s.encodeCheckpointLocked(1)
	s.enqueue(sb, outMsg{typ: protocol.MsgCheckpoint, payload: ckpt.buf.B, shared: ckpt})
	s.mu.Unlock()
	if prev != nil {
		prev.shutdown()
	}
	s.wg.Add(1)
	go s.snWriter(sb)
	// Everyone's failover address just changed.
	s.broadcastCandidates()

	// The standby sends nothing in steady state; the read blocks until
	// the follower drops, which is how the primary notices it is alone
	// again.
	for {
		if _, _, rerr := fr.Next(); rerr != nil {
			break
		}
	}
	s.mu.Lock()
	if s.standby == sb {
		s.standby = nil
		s.standbyAddr = ""
	}
	s.mu.Unlock()
	sb.shutdown()
	s.broadcastCandidates()
}

// admitSupernode is the one supernode admission: it registers the
// supernode and answers with a full snapshot to seed its replica from. A
// first contact (MsgSupernodeHello, req nil) is welcomed; a resume after
// a network blip or a failover (MsgResume, req set) is registered exactly
// like a fresh one — replicas may hold ticks the restored history never
// committed, so they always reseed — and the reply tells it so.
func (s *CloudServer) admitSupernode(conn net.Conn, fr *protocol.FrameReader, hello protocol.SupernodeHello, req *protocol.Resume) {
	sn := &supernodeConn{
		name:       hello.Name,
		streamAddr: hello.StreamAddr,
		capacity:   hello.Capacity,
		conn:       conn,
		sendQ:      make(chan outMsg, s.cfg.SendQueueLen),
		done:       make(chan struct{}),
		idle:       make(chan struct{}, 1),
	}
	s.mu.Lock()
	sn.id = s.nextSNID
	s.nextSNID++
	s.supernodes[sn.id] = sn
	snap := s.world.Snapshot()
	reply := protocol.ResumeReply{
		OK:              true,
		Epoch:           s.epoch,
		Tick:            snap.Tick,
		SupernodeID:     sn.id,
		HasSnapshot:     true,
		Snapshot:        snap,
		CloudStreamAddr: s.Addr(),
		StandbyAddr:     s.standbyAddr,
	}
	if req != nil {
		s.stats.Resilience.ResumedSupernodes++
	}
	s.mu.Unlock()

	typ, payload := admissionReply(req, reply)
	if sendMsg(conn, s.cfg.WriteTimeout, typ, payload) != nil {
		s.unregisterSupernode(sn, false)
		return
	}
	// The new supernode changes every player's best failover ladder.
	s.broadcastCandidates()
	s.wg.Add(1)
	go s.snWriter(sn)
	s.snReadLoop(sn, fr)
}

// serveFallbackStream runs a cloud-rendered video session, exactly like a
// supernode but from the authoritative world; handleConn consumed the
// probe that opened it.
func (s *CloudServer) serveFallbackStream(conn net.Conn, fr *protocol.FrameReader) {
	defer conn.Close()
	fb := cloudFallback{s}
	attach, ok := serveAttach(conn, fr, s.tc, true, fb)
	if !ok {
		return
	}
	defer fb.unclaim(attach.PlayerID)
	runVideoSession(conn, fr, attach, DefaultFrameInterval, s.cfg.WriteTimeout, fb, s.stop, &s.wg)
}

// cloudFallback is the cloud as a sessionHost: it never refuses a session,
// renders from the authoritative world, routes its egress into the cloud's
// bandwidth accounting and never upgrades to datagrams.
type cloudFallback struct{ s *CloudServer }

// submitAction: the cloud is the authority, so rerouted inputs go straight
// into the pending queue (the video-session reader already verified the
// sender).
func (c cloudFallback) submitAction(a virtualworld.Action) bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.queueActionLocked(a)
}

func (c cloudFallback) viewInto(dst *virtualworld.Snapshot, player int) virtualworld.Viewport {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.world.ViewInto(dst, player, render.ViewHalfWidth, render.ViewHalfHeight)
}

// offerDatagram refuses: the last rung of the ladder favors the transport
// that works everywhere over the one that performs best.
func (c cloudFallback) offerDatagram() (protocol.DatagramReply, *dgramSession) {
	//lint:ignore epochstamp refusal reply: OK=false carries no orderable state, the player stays on the TCP stream
	return protocol.DatagramReply{Reason: "datagram video unavailable"}, nil
}

func (c cloudFallback) endDatagram(*dgramSession) {}

func (c cloudFallback) freeSlots() int { return 1 << 15 } // effectively unbounded

func (c cloudFallback) claim(int32) bool {
	c.s.mu.Lock()
	c.s.stats.FallbackPlayers++
	c.s.mu.Unlock()
	return true
}

func (c cloudFallback) unclaim(int32) {
	c.s.mu.Lock()
	c.s.stats.FallbackPlayers--
	c.s.mu.Unlock()
}

func (c cloudFallback) addFrame(bits int, fullEncode bool) {
	c.s.mu.Lock()
	c.s.stats.FallbackBits += int64(bits)
	c.s.stats.FallbackFrames++
	if fullEncode {
		c.s.stats.FallbackFullEncodes++
	}
	c.s.mu.Unlock()
}

// snReadLoop is the supernode read loop: heartbeat acks flow back here,
// along with player actions the supernode buffered and forwarded during a
// cloud outage. A read error means the supernode left or was evicted.
// The reader reuses one buffer per connection; every message is decoded
// into owned values before the next read.
func (s *CloudServer) snReadLoop(sn *supernodeConn, fr *protocol.FrameReader) {
	var iu protocol.InterestUpdate // decode scratch, reused per message
readLoop:
	for {
		typ, payload, rerr := fr.Next()
		if rerr != nil {
			break
		}
		switch typ {
		case protocol.MsgInterestUpdate:
			if ierr := protocol.DecodeInterestUpdate(payload, &iu); ierr != nil {
				continue
			}
			s.applyInterest(sn, &iu)
		case protocol.MsgHeartbeatAck:
			ack, aerr := protocol.UnmarshalHeartbeatAck(payload)
			if aerr != nil {
				continue
			}
			s.mu.Lock()
			sn.missed = 0
			// The ack doubles as a load report: the attached-player count
			// feeds the availability sort of the candidate ladder.
			sn.lastAttached = int(ack.Attached)
			s.stats.Resilience.HeartbeatAcks++
			s.mu.Unlock()
		case protocol.MsgAction:
			// A registered supernode relays inputs its players could not
			// deliver directly (buffered through the outage window). The
			// supernode is a trusted tier, but the action must still name
			// an admitted avatar.
			am, aerr := protocol.UnmarshalActionMsg(payload)
			if aerr != nil {
				continue
			}
			s.mu.Lock()
			if s.queueActionLocked(am.Action) {
				s.stats.Resilience.ForwardedActions++
			}
			s.mu.Unlock()
		case protocol.MsgBye:
			// Graceful supernode departure (fogsrv SIGTERM): record it
			// now instead of waiting for the socket to die.
			break readLoop
		}
	}
	s.unregisterSupernode(sn, false)
}

// admitPlayer is the one player admission. A join (MsgPlayerJoin, req
// nil) spawns the avatar where it asks. A resume (MsgResume, req set)
// re-admits a session that survived a failover: it is known when its
// avatar lives in the restored world or the checkpoint's session table
// lists it, the avatar keeps its exact position, HP, and state — no
// respawn — and an unknown session is refused so the client falls back
// to a full rejoin.
func (s *CloudServer) admitPlayer(conn net.Conn, fr *protocol.FrameReader, join protocol.PlayerJoin, req *protocol.Resume) {
	id := join.PlayerID
	pc := &playerConn{conn: conn}
	var (
		old   *playerConn
		reply protocol.ResumeReply
	)
	s.mu.Lock()
	survived := s.world.Avatar(int(id)) != nil
	known := req == nil || survived || s.resumable[id]
	if known {
		if req != nil {
			// Session table said resumable but the avatar is gone (departed
			// after the checkpoint, removal replayed from the log): a fresh
			// spawn at the centre rather than refusing the player.
			width, height := s.world.Size()
			join.SpawnX, join.SpawnY = width/2, height/2
		}
		av := s.world.SpawnAvatar(int(id), join.SpawnX, join.SpawnY) // a surviving avatar is returned untouched
		if req == nil || !survived {
			// The spawn is a membership change the next tick's delta stream
			// (and the standby's log) must carry.
			s.sessionDeltas = append(s.sessionDeltas, virtualworld.Delta{ID: av.ID, Entity: *av})
		}
		old = s.players[id]
		s.players[id] = pc
		delete(s.resumable, id) // admitted either way: the resumable claim is spent
		reply = protocol.ResumeReply{
			OK:    true,
			Epoch: s.epoch,
			Tick:  s.world.Tick(),
			// Candidate ladder: registered supernodes ranked by the shared
			// §3.2 pipeline (load, capacity, live QoE score).
			Candidates:      s.candidateInfosLocked(),
			CloudStreamAddr: s.Addr(),
			StandbyAddr:     s.standbyAddr,
		}
		if req != nil {
			s.stats.Resilience.ResumedPlayers++
		}
	}
	s.mu.Unlock()
	if !known {
		//lint:ignore epochstamp refusal reply: OK=false carries no orderable state, the client falls back to a full rejoin
		refuse := protocol.ResumeReply{Reason: "unknown session"}
		_ = sendMsg(conn, s.cfg.WriteTimeout, protocol.MsgResumeReply, refuse.Marshal()) // the close says no just as well
		conn.Close()
		return
	}
	if old != nil {
		old.conn.Close()
	}

	typ, payload := admissionReply(req, reply)
	pc.sendMu.Lock()
	err := sendMsg(conn, s.cfg.WriteTimeout, typ, payload)
	pc.sendMu.Unlock()
	if err != nil {
		s.dropPlayer(id, pc)
		return
	}
	s.playerLoop(fr, id, pc)
}

// playerLoop is the action loop: the player streams inputs until it
// leaves. The reader reuses one buffer per connection; every message is
// decoded into owned values before the next read.
func (s *CloudServer) playerLoop(fr *protocol.FrameReader, playerID int32, pc *playerConn) {
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			break
		}
		switch typ {
		case protocol.MsgAction:
			am, aerr := protocol.UnmarshalActionMsg(payload)
			if aerr != nil || am.Action.Player != int(playerID) {
				continue // never let a player act for another
			}
			s.mu.Lock()
			s.queueActionLocked(am.Action)
			s.mu.Unlock()
		case protocol.MsgQoEReport:
			rep, rerr := protocol.UnmarshalQoEReport(payload)
			if rerr != nil || rep.PlayerID != playerID {
				continue // never let a player rate on another's behalf
			}
			s.recordQoE(rep)
		case protocol.MsgBye:
			s.dropPlayer(playerID, pc)
			return
		}
	}
	s.dropPlayer(playerID, pc)
}

func (s *CloudServer) dropPlayer(id int32, pc *playerConn) {
	s.mu.Lock()
	if s.players[id] == pc {
		delete(s.players, id)
		if av := s.world.Avatar(int(id)); av != nil {
			// The departure is a membership change the delta stream and
			// the standby's log must carry.
			s.sessionDeltas = append(s.sessionDeltas, virtualworld.Delta{ID: av.ID, Removed: true})
		}
		s.world.RemovePlayer(int(id))
	}
	s.mu.Unlock()
	pc.conn.Close()
}
