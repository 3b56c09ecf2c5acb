package fognet

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/transport"
	"cloudfog/internal/virtualworld"
)

// DefaultFrameInterval is the streaming frame period. The paper streams at
// 30 fps; the prototype default matches, and tests lower it.
const DefaultFrameInterval = time.Second / 30

// Reconnect backoff defaults: jittered exponential, so a cloud restart is
// not greeted by a synchronized stampede of supernodes.
const (
	DefaultReconnectBackoff    = 200 * time.Millisecond
	DefaultReconnectBackoffMax = 5 * time.Second
)

// FogConfig parameterizes a FogNode.
type FogConfig struct {
	// Name labels the supernode.
	Name string
	// CloudAddr is the cloud server to register with.
	CloudAddr string
	// StreamAddr is the listen address for player video sessions
	// ("127.0.0.1:0" for an ephemeral port).
	StreamAddr string
	// Capacity is the maximum concurrent players (the supernode capacity
	// of §3.2.1).
	Capacity int
	// FrameInterval is the video frame period. Defaults to
	// DefaultFrameInterval.
	FrameInterval time.Duration
	// DialTimeout bounds the cloud dial. Defaults to DefaultDialTimeout.
	DialTimeout time.Duration
	// WriteTimeout bounds protocol writes (heartbeat acks, video frames).
	// Defaults to transport.DefaultWriteTimeout.
	WriteTimeout time.Duration
	// ReconnectBackoff is the initial delay before redialing a lost
	// cloud connection; it doubles per attempt up to
	// DefaultReconnectBackoffMax, with ±50% deterministic jitter.
	ReconnectBackoff time.Duration
	// Seed drives the reconnect jitter deterministically.
	Seed uint64
	// Dial, when set, replaces net.DialTimeout — the faultnet injection
	// point for chaos tests.
	Dial DialFunc
	// Datagram enables the unreliable UDP video path: the node opens a
	// UDP socket next to the stream listener and grants it in every
	// attach reply. A session switches to datagrams when the player's
	// hello lands; one whose hello never arrives streams over the session
	// connection exactly as before.
	Datagram bool
	// DatagramAddr is the UDP listen address for the datagram video
	// path. Defaults to the stream listener's host with an ephemeral
	// port.
	DatagramAddr string
	// WrapDatagram, when set, wraps the UDP socket — the faultnet
	// injection point for lossy-path chaos tests.
	WrapDatagram transport.WrapDatagramFunc
	// AoI enables interest management: the node names its attached
	// players to the cloud, which sends per-cell batches for just the
	// cells around their avatars instead of the full-world update stream.
	// Off by default — a node that never reports interest behaves exactly
	// as before.
	AoI bool
}

// FogResilience groups the supernode's failure-handling counters.
type FogResilience struct {
	// Reconnects counts successful cloud re-registrations after a lost
	// connection (each one also resyncs the replica).
	Reconnects int64
	// ReconnectAttempts counts dial attempts, successful or not.
	ReconnectAttempts int64
	// HeartbeatAcks counts liveness replies sent to the cloud.
	HeartbeatAcks int64
	// Resumes counts reconnections that went through MsgResume — after a
	// cloud failover, re-admissions on the promoted standby.
	Resumes int64
	// DiscardedResyncs counts resume replies that flagged the replica as
	// ahead of the restored history (those ticks are authoritatively
	// gone; the snapshot reseed erases them).
	DiscardedResyncs int64
	// BufferedActions / ForwardedActions / DroppedActions account the
	// outage-window input path: player actions queued while the cloud
	// link was down, flushed upstream after recovery, or dropped because
	// a per-player queue was full.
	BufferedActions  int64
	ForwardedActions int64
	DroppedActions   int64
}

// maxBufferedActionsPerPlayer bounds each player's outage-window action
// queue on the fog node; beyond it the oldest intent is the one worth
// keeping least, so it is dropped (and counted) to make room.
const maxBufferedActionsPerPlayer = 64

// FogNode is one supernode: it replicates the world and renders/streams
// per-player video.
type FogNode struct {
	cfg FogConfig
	// tp is the transport seam: every dial, handshake deadline, and
	// write bound the node applies flows from its one policy.
	tp       transport.TCP
	listener net.Listener
	// dgram is the UDP video path, nil unless cfg.Datagram is set.
	dgram *fogDatagram

	mu      sync.Mutex
	cloud   net.Conn
	cloudFR *protocol.FrameReader // cloud's one frame reader, swapped with it
	id      uint32
	replica *virtualworld.Replica
	// attached is the attach set: each streaming player's session wake
	// channel (slot.wake), signalled by the update loop when a batch
	// changes that player's avatar.
	attached map[int32]chan struct{} // guarded by mu
	// stats is the storage of the counters Stats reports; the replica,
	// attach-set and datagram figures are filled in at snapshot time. Its
	// Epoch is live state too: the authority epoch of the cloud currently
	// followed.
	stats FogStats // guarded by mu
	// interestGen numbers the interest reports (reportInterest).
	interestGen uint32 // guarded by mu

	// The failover view (next to stats.Epoch): the address of the cloud
	// currently followed and the advertised standby. reconnect walks
	// authority → standby and a successful resume rebinds all three.
	authority   string // guarded by mu
	standbyAddr string // guarded by mu
	// actionQ buffers per-player inputs received on video sessions while
	// the cloud link is down (bounded by maxBufferedActionsPerPlayer);
	// guarded by mu.
	actionQ map[int32][]virtualworld.Action

	// cloudWMu serializes writes on the cloud connection: heartbeat acks
	// from the update loop, and forwarded player actions and interest
	// reports from video sessions share it.
	cloudWMu sync.Mutex
	cloudBuf []byte // action/interest encode scratch; guarded by cloudWMu

	jitter *rng.Rand // reconnect jitter; drawn from under mu (backoffWait)

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewFogNode connects to the cloud, registers, seeds its replica, and
// starts serving players on StreamAddr. If the cloud connection later
// drops, the node redials with jittered exponential backoff and resyncs
// its replica from the fresh welcome snapshot; players stay attached and
// stream (increasingly stale) frames throughout.
func NewFogNode(cfg FogConfig) (*FogNode, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8
	}
	if cfg.FrameInterval <= 0 {
		cfg.FrameInterval = DefaultFrameInterval
	}
	if cfg.StreamAddr == "" {
		cfg.StreamAddr = "127.0.0.1:0"
	}
	tc := transport.Config{
		DialTimeout:  cfg.DialTimeout,
		WriteTimeout: cfg.WriteTimeout,
	}.WithDefaults()
	cfg.DialTimeout = tc.DialTimeout
	cfg.WriteTimeout = tc.WriteTimeout
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = DefaultReconnectBackoff
	}
	tp := transport.TCP{Config: tc, DialFunc: cfg.Dial}
	ln, err := tp.Listen(cfg.StreamAddr)
	if err != nil {
		return nil, fmt.Errorf("fog listen: %w", err)
	}
	f := &FogNode{
		cfg:       cfg,
		tp:        tp,
		listener:  ln,
		attached:  make(map[int32]chan struct{}),
		actionQ:   make(map[int32][]virtualworld.Action),
		authority: cfg.CloudAddr,
		jitter:    rng.New(cfg.Seed).SplitNamed("fog-reconnect-" + cfg.Name),
		stop:      make(chan struct{}),
	}
	if cfg.Datagram {
		f.dgram, err = newFogDatagram(cfg.DatagramAddr, ln.Addr().String(),
			cfg.WrapDatagram, tc.WriteTimeout, cfg.Seed)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("fog datagram listen: %w", err)
		}
	}
	conn, fr, welcome, err := f.dialCloud(cfg.CloudAddr, false)
	if err != nil {
		if f.dgram != nil {
			f.dgram.close()
		}
		ln.Close()
		return nil, err
	}
	f.mu.Lock()
	f.replica = virtualworld.NewReplica(welcome.Snapshot.Width, welcome.Snapshot.Height)
	f.adoptCloudLocked(conn, fr, cfg.CloudAddr, welcome)
	f.mu.Unlock()

	f.wg.Add(2)
	go f.updateLoop()
	go f.acceptLoop()
	// Report the initial (typically empty) attach set so an idle node drops
	// off the full-world stream right away.
	f.reportInterest()
	return f, nil
}

// dialCloud is the node's one way onto a cloud: dial addr and register,
// with MsgSupernodeHello on first contact and the epoch-stamped MsgResume
// on every reconnect. Either answer carries the supernode ID, the epoch,
// the standby's address and the snapshot to (re)seed the replica from.
func (f *FogNode) dialCloud(addr string, resume bool) (net.Conn, *protocol.FrameReader, protocol.ResumeReply, error) {
	hello := protocol.SupernodeHello{
		Name:       f.cfg.Name,
		Capacity:   f.cfg.Capacity,
		StreamAddr: f.StreamAddr(),
	}
	typ, want, payload := protocol.MsgSupernodeHello, protocol.MsgSupernodeWelcome, hello.Marshal()
	if resume {
		f.mu.Lock()
		req := protocol.Resume{
			Kind:       protocol.ResumeSupernode,
			Epoch:      f.stats.Epoch,
			Tick:       f.replica.Tick(),
			Name:       hello.Name,
			Capacity:   hello.Capacity,
			StreamAddr: hello.StreamAddr,
		}
		f.mu.Unlock()
		typ, want, payload = protocol.MsgResume, protocol.MsgResumeReply, req.Marshal()
	}
	conn, fr, reply, err := dialAdmission(f.tp, addr, typ, payload, want)
	if err == nil && !reply.HasSnapshot {
		conn.Close()
		return nil, nil, reply, fmt.Errorf("admission at %s: %v carries no snapshot", addr, want)
	}
	return conn, fr, reply, err
}

// adoptCloudLocked binds the node to the cloud link dialCloud just
// established: connection, identity, failover view, and a replica reseeded
// from the reply's snapshot (stale state is dropped wholesale). The new
// connection has no AoI subscription until the caller reports interest on
// it. Caller holds mu.
func (f *FogNode) adoptCloudLocked(conn net.Conn, fr *protocol.FrameReader, addr string, reply protocol.ResumeReply) {
	f.cloud, f.cloudFR = conn, fr
	f.id = reply.SupernodeID
	f.stats.Epoch = reply.Epoch
	f.authority = addr
	f.standbyAddr = reply.StandbyAddr
	f.replica.Seed(reply.Snapshot)
}

// StreamAddr returns the address players connect to for video.
func (f *FogNode) StreamAddr() string { return f.listener.Addr().String() }

// ID returns the cloud-assigned supernode ID (it changes on reconnect).
func (f *FogNode) ID() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.id
}

func (f *FogNode) closeAll() {
	f.listener.Close()
	if f.dgram != nil {
		f.dgram.close()
	}
	f.mu.Lock()
	cloud := f.cloud
	f.mu.Unlock()
	if cloud != nil {
		cloud.Close()
	}
}

// Close stops the fog node and waits for its goroutines.
func (f *FogNode) Close() error {
	select {
	case <-f.stop:
		return nil
	default:
	}
	close(f.stop)
	f.closeAll()
	f.wg.Wait()
	return nil
}

// Shutdown is the graceful SIGTERM path: it drains any outage-window
// action buffers upstream, tells the cloud this supernode is departing
// (MsgBye, so the eviction is a clean departure rather than a heartbeat
// timeout), and then closes. Streaming players see their session end and
// migrate via the candidate ladder as usual.
func (f *FogNode) Shutdown() error {
	f.flushActions()
	f.mu.Lock()
	conn := f.cloud
	f.mu.Unlock()
	if conn != nil {
		f.cloudWMu.Lock()
		_ = sendMsg(conn, f.cfg.WriteTimeout, protocol.MsgBye, nil) // best effort: Close below ends the link regardless
		f.cloudWMu.Unlock()
	}
	return f.Close()
}

// FogStats reports supernode counters.
type FogStats struct {
	// ReplicaTick is the latest applied world tick.
	ReplicaTick uint64
	// Epoch is the authority epoch of the cloud currently followed.
	Epoch uint64
	// BufferedNow is the number of outage-window actions currently held.
	BufferedNow int
	// Attached is the number of streaming players.
	Attached int
	// Frames is the total video frames streamed.
	Frames int64
	// EarlyFrames counts the frames a session sent because its player's
	// avatar changed, ahead of the frame clock; the rest of Frames are
	// clock frames (and first frames at attach).
	EarlyFrames int64
	// VideoBits is the total video egress.
	VideoBits int64
	// FullEncodes counts the frames whose encoder could not use the
	// renderer's damage and worked through every pixel: one per session
	// start, level switch and quantization-step change. A count that
	// keeps pace with Frames means sessions pay the full codec cost on
	// every frame.
	FullEncodes int64
	// Probes counts capacity probes answered — how often this supernode
	// was tried during §3.2 selection, whether or not a player attached.
	Probes int64
	// DatagramSessions counts video sessions that went live over UDP (a
	// hello arrived and frames switched to datagrams).
	DatagramSessions int64
	// DatagramFrames counts video frames sent as datagrams; the TCP
	// frame count is Frames minus this.
	DatagramFrames int64
	// DatagramHellos / DatagramUnknown count hello datagrams registered
	// and datagrams dropped for a bad header, kind, token, or epoch.
	DatagramHellos  int64
	DatagramUnknown int64
	// AppliedDeltas / StaleDeltas are replica counters.
	AppliedDeltas int
	StaleDeltas   int
	// UpdateDecodeErrors counts update and cell batches from the cloud
	// that did not decode and were skipped: each is a hole in the replica
	// until the entities it carried change again.
	UpdateDecodeErrors int64
	// InterestUpdatesSent counts AoI interest reports sent upstream, one
	// per (re)connect and per attach or detach; zero when AoI is off.
	InterestUpdatesSent int64
	// CellBatches / KeyframesApplied count the AoI update stream: per-cell
	// delta batches applied, and how many of them were cell-enter
	// keyframes.
	CellBatches      int64
	KeyframesApplied int64
	// Resilience groups the failure-handling counters.
	Resilience FogResilience
}

// Stats snapshots the counters.
func (f *FogNode) Stats() FogStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	for _, q := range f.actionQ {
		st.BufferedNow += len(q)
	}
	st.ReplicaTick = f.replica.Tick()
	st.Attached = len(f.attached)
	st.AppliedDeltas = f.replica.AppliedDeltas()
	st.StaleDeltas = f.replica.StaleDeltas()
	if f.dgram != nil {
		st.DatagramSessions = f.dgram.sessOpen.Load()
		st.DatagramFrames = f.dgram.frames.Load()
		st.DatagramHellos = f.dgram.hellos.Load()
		st.DatagramUnknown = f.dgram.unknown.Load()
	}
	return st
}

func (f *FogNode) noteUpdateDecodeError() {
	f.mu.Lock()
	f.stats.UpdateDecodeErrors++
	f.mu.Unlock()
}

// updateLoop applies the cloud's update stream to the replica, answers
// heartbeats, and — when the connection dies — reconnects with jittered
// exponential backoff and resyncs the replica.
//
// This is the fog side of the Λ stream, so it is allocation-free in steady
// state: the frame reader reuses one receive buffer per connection, the
// update batch reuses its delta slice across ticks (the replica copies
// what it keeps), and heartbeat acks are framed into a reused scratch
// buffer and flushed with a single Write.
func (f *FogNode) updateLoop() {
	defer f.wg.Done()
	var batch protocol.UpdateBatch
	var cellBatch protocol.CellBatch
	var ackBuf []byte
	for {
		f.mu.Lock()
		conn, fr := f.cloud, f.cloudFR // reconnecting swaps both
		f.mu.Unlock()
	readLoop:
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				break readLoop
			}
			switch typ {
			case protocol.MsgUpdateBatch:
				if berr := protocol.DecodeUpdateBatch(payload, &batch); berr != nil {
					f.noteUpdateDecodeError()
					continue
				}
				f.mu.Lock()
				// The authority failed over while this conn survived; its
				// stamp is the fastest notification there is.
				//lint:ignore epochstamp epoch adoption, not a discard decision: the fog follows the highest epoch it has seen
				if batch.Epoch > f.stats.Epoch {
					f.stats.Epoch = batch.Epoch
				}
				f.replica.Apply(batch.Tick, batch.Deltas)
				wakeOwners(f.attached, batch.Deltas)
				f.mu.Unlock()
			case protocol.MsgCellBatch:
				if berr := protocol.DecodeCellBatch(payload, &cellBatch); berr != nil {
					f.noteUpdateDecodeError()
					continue
				}
				f.mu.Lock()
				//lint:ignore epochstamp epoch adoption, not a discard decision: the fog follows the highest epoch it has seen
				if cellBatch.Epoch > f.stats.Epoch {
					f.stats.Epoch = cellBatch.Epoch
				}
				if cellBatch.Keyframe {
					// Cell-enter seed: prune in-cell entities the batch does
					// not mention, then apply its full population.
					f.replica.ApplyCellKeyframe(cellBatch.Tick, cellBatch.Cell, cellBatch.Deltas)
					f.stats.KeyframesApplied++
				} else {
					// Ordinary cell deltas — including the CellNone global
					// bucket (removals, session events) — apply as-is.
					f.replica.Apply(cellBatch.Tick, cellBatch.Deltas)
				}
				wakeOwners(f.attached, cellBatch.Deltas)
				f.stats.CellBatches++
				f.mu.Unlock()
			case protocol.MsgHeartbeat:
				hb, herr := protocol.UnmarshalHeartbeat(payload)
				if herr != nil {
					continue
				}
				f.mu.Lock()
				ack := protocol.HeartbeatAck{
					Seq:         hb.Seq,
					ReplicaTick: f.replica.Tick(),
					Attached:    uint16(len(f.attached)),
				}
				f.mu.Unlock()
				// The ack shares the connection with forwarded player
				// actions; one writer at a time.
				f.cloudWMu.Lock()
				werr := sendInto(conn, f.cfg.WriteTimeout, &ackBuf, protocol.MsgHeartbeatAck, &ack)
				f.cloudWMu.Unlock()
				if werr != nil {
					continue // the read side will observe the dead conn
				}
				f.mu.Lock()
				f.stats.Resilience.HeartbeatAcks++
				f.mu.Unlock()
			case protocol.MsgCandidateUpdate:
				// The cloud keeps supernodes' failover view current too:
				// the advertised standby is the second rung of this
				// node's own reconnect ladder.
				upd, uerr := protocol.UnmarshalCandidateUpdate(payload)
				if uerr != nil {
					continue
				}
				f.mu.Lock()
				f.standbyAddr = upd.StandbyAddr
				f.mu.Unlock()
			case protocol.MsgBye:
				// Graceful cloud shutdown: stop reading and head into the
				// redial/resume ladder (the standby, if any, is about to
				// take over).
				break readLoop
			}
		}
		if !f.reconnect() {
			return // closing
		}
	}
}

// reconnect re-establishes the cloud link after it broke, walking the
// failover ladder authority → standby with jittered, capped exponential
// backoff. Every rung goes through MsgResume: it re-registers on the
// same primary after a network blip and re-admits on a promoted standby
// after a crash, and either way the reply's snapshot resyncs the
// replica. On success, buffered outage-window player actions are
// flushed upstream.
func (f *FogNode) reconnect() bool {
	f.mu.Lock()
	old := f.cloud
	f.mu.Unlock()
	old.Close()
	backoff := f.cfg.ReconnectBackoff
	for backoffWait(f.stop, &f.mu, f.jitter, &backoff, DefaultReconnectBackoffMax) {
		f.mu.Lock()
		ladder := failoverLadder(f.authority, f.standbyAddr)
		f.mu.Unlock()
		for _, addr := range ladder {
			f.mu.Lock()
			f.stats.Resilience.ReconnectAttempts++
			f.mu.Unlock()
			conn, fr, reply, err := f.dialCloud(addr, true)
			if err != nil {
				continue
			}
			f.mu.Lock()
			f.adoptCloudLocked(conn, fr, addr, reply)
			if reply.Discard {
				f.stats.Resilience.DiscardedResyncs++
			}
			f.stats.Resilience.Reconnects++
			f.stats.Resilience.Resumes++
			f.mu.Unlock()
			select {
			case <-f.stop:
				// Close ran before the new link was installed and will not
				// see it; it is ours to close.
				conn.Close()
				return false
			default:
			}
			f.flushActions()
			f.reportInterest()
			return true
		}
	}
	return false // closing
}

// submitAction implements sessionHost: a player whose cloud control link
// is down sent an input over its video session. The fog forwards it
// upstream immediately when its own cloud link is up, and otherwise
// buffers it (bounded per player) for the outage window.
func (f *FogNode) submitAction(a virtualworld.Action) {
	f.mu.Lock()
	conn := f.cloud
	f.mu.Unlock()
	if conn != nil && f.forwardAction(conn, a) {
		f.mu.Lock()
		f.stats.Resilience.ForwardedActions++
		f.mu.Unlock()
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	q := f.actionQ[int32(a.Player)]
	if len(q) >= maxBufferedActionsPerPlayer {
		q = append(q[:0], q[1:]...)
		f.stats.Resilience.DroppedActions++
	}
	f.actionQ[int32(a.Player)] = append(q, a)
	f.stats.Resilience.BufferedActions++
}

// forwardAction frames and writes one action upstream under the shared
// cloud-write mutex; false means the link is (now) broken.
func (f *FogNode) forwardAction(conn net.Conn, a virtualworld.Action) bool {
	msg := protocol.ActionMsg{Action: a}
	f.cloudWMu.Lock()
	defer f.cloudWMu.Unlock()
	return sendInto(conn, f.cfg.WriteTimeout, &f.cloudBuf, protocol.MsgAction, &msg) == nil
}

// flushActions drains the outage-window buffers upstream after a
// reconnect, in player order so the flush is deterministic for a given
// buffered set.
func (f *FogNode) flushActions() {
	f.mu.Lock()
	conn := f.cloud
	var all []virtualworld.Action
	if conn != nil && len(f.actionQ) > 0 {
		ids := make([]int32, 0, len(f.actionQ))
		for id := range f.actionQ {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			all = append(all, f.actionQ[id]...)
			delete(f.actionQ, id)
		}
	}
	f.mu.Unlock()
	for _, a := range all {
		if !f.forwardAction(conn, a) {
			return // the read side will observe the dead conn
		}
		f.mu.Lock()
		f.stats.Resilience.ForwardedActions++
		f.mu.Unlock()
	}
}

func (f *FogNode) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.listener.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go f.servePlayer(conn)
	}
}

// freeSlots implements sessionHost: it answers, and counts, one capacity
// probe.
func (f *FogNode) freeSlots() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Probes++
	return f.cfg.Capacity - len(f.attached)
}

// claim implements sessionHost against the node's capacity: the slot's
// wake channel joins the attach set. With a UDP socket it registers the
// slot's datagram session under the authority epoch of the cloud currently
// followed, so a receiver can discard frames of a pre-failover session
// wholesale.
func (f *FogNode) claim(player int32) (slot, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.attached) >= f.cfg.Capacity {
		return slot{}, false
	}
	sl := slot{wake: make(chan struct{}, 1)}
	f.attached[player] = sl.wake
	if f.dgram != nil {
		sl.dgram = f.dgram.newSession(f.stats.Epoch)
	}
	return sl, true
}

// unclaim implements sessionHost. A player attached twice keeps its entry
// until the session that claimed it last ends.
func (f *FogNode) unclaim(player int32, sl slot) {
	f.mu.Lock()
	if f.attached[player] == sl.wake {
		delete(f.attached, player)
	}
	f.mu.Unlock()
	if sl.dgram != nil {
		f.dgram.drop(sl.dgram)
	}
}

// servePlayer answers capacity probes and runs one player's video session.
func (f *FogNode) servePlayer(conn net.Conn) {
	defer f.wg.Done()
	defer conn.Close()
	fr := protocol.NewFrameReader(conn)
	attach, sl, ok := serveAttach(conn, fr, f.tp.Config, false, f)
	if !ok {
		return
	}
	// The attach set changed, both ways: the cloud subscribes the node to
	// the new player's surroundings, and drops them after it leaves.
	f.reportInterest()
	defer func() {
		f.unclaim(attach.PlayerID, sl)
		f.reportInterest()
	}()
	runVideoSession(conn, fr, attach, sl, f.cfg.FrameInterval, f.cfg.WriteTimeout, f, f.stop, &f.wg)
}

// viewInto implements sessionHost over the replica.
func (f *FogNode) viewInto(dst *virtualworld.Snapshot, player int) virtualworld.Viewport {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.replica.ViewInto(dst, player, render.ViewHalfWidth, render.ViewHalfHeight)
}

// addFrame implements sessionHost.
func (f *FogNode) addFrame(bits int, fullEncode, early bool) {
	f.mu.Lock()
	f.stats.Frames++
	if early {
		f.stats.EarlyFrames++
	}
	f.stats.VideoBits += int64(bits)
	if fullEncode {
		f.stats.FullEncodes++
	}
	f.mu.Unlock()
}
