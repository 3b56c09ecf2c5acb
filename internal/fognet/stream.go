package fognet

import (
	"net"
	"sync"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/transport"
	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// sessionHost is the tier a video session runs on: *FogNode, or
// cloudFallback for players without a nearby supernode.
type sessionHost interface {
	// freeSlots answers a capacity probe, claim takes a slot for the
	// player (false means at capacity) and unclaim gives it back: a fog
	// node counts attached players against its capacity, the cloud's
	// fallback stream never refuses.
	freeSlots() int
	claim(player int32) (slot, bool)
	unclaim(player int32, sl slot)
	// viewInto fills a session-owned snapshot with what one player can
	// see and returns the viewport it was cut to: a fog node reads its
	// replica, the cloud the authoritative world. Either holds its lock
	// only for the view query — time proportional to the visible
	// entities, not to the world.
	viewInto(dst *virtualworld.Snapshot, player int) virtualworld.Viewport
	// addFrame receives the session's accounting for one frame sent: its
	// size, whether the encoder had to treat every tile as dirty, and
	// whether a wake sent it rather than the frame clock.
	addFrame(bits int, fullEncode, early bool)
	// submitAction accepts a player input that arrived on the video
	// session — the outage escape hatch: a player whose cloud control
	// link is down routes actions through its serving supernode, which
	// forwards them upstream immediately or buffers them (bounded) until
	// its own cloud link recovers, dropping the player's oldest buffered
	// input when its queue is full. The cloud's fallback sessions feed the
	// authoritative world directly.
	submitAction(a virtualworld.Action)
}

// slot is what a claim hands the session it admits. dgram is the datagram
// session registered with the slot when the host has a UDP socket (nil
// elsewhere: the session streams over TCP only); unclaim releases it. wake
// is the session's cap-1 wake channel, signalled (wakeOwners) when the
// player's own avatar changes in the world the host renders from.
type slot struct {
	dgram *dgramSession
	wake  chan struct{}
}

// wakeOwners signals, in a host's attach set, the session of every player
// whose avatar deltas changed — its own action, a spawn, a hit, or a cell
// keyframe that carries it — so the frame showing it need not wait for the
// frame clock: a fog calls it for each batch it applies to its replica,
// the cloud for each tick of its world. A session already signalled keeps
// its one token; an NPC costs one compare. Caller holds the lock that
// guards attached.
func wakeOwners(attached map[int32]chan struct{}, deltas []virtualworld.Delta) {
	for i := range deltas {
		d := &deltas[i]
		if d.Removed || d.Entity.Owner < 0 {
			continue
		}
		select {
		case attached[int32(d.Entity.Owner)] <- struct{}{}:
		default: // not attached here (a nil channel), or a wake is already pending
		}
	}
}

// serveAttach is the serving side of the probe→attach handshake that
// opens every video session, on a fog node and on the cloud's fallback
// stream alike: each MsgProbe is answered with the free slots, and the
// MsgPlayerAttach that follows claims one; the reply carries the slot's
// datagram grant when the host has one. probed says the caller's
// dispatch already consumed the opening MsgProbe (the cloud tells its
// peers apart by their first message). The read deadline is armed once
// for the whole handshake, not per message: a peer that keeps probing and
// never attaches is cut off when it runs out. On success the player holds
// a slot that the caller must unclaim.
func serveAttach(conn net.Conn, fr *protocol.FrameReader, tc transport.Config,
	probed bool, host sessionHost) (protocol.PlayerAttach, slot, bool) {
	var attach protocol.PlayerAttach
	conn.SetReadDeadline(time.Now().Add(tc.HandshakeTimeout))
	for ; ; probed = false {
		typ, payload := protocol.MsgProbe, []byte(nil)
		if !probed {
			var err error
			if typ, payload, err = fr.Next(); err != nil {
				return attach, slot{}, false
			}
		}
		switch typ {
		case protocol.MsgProbe:
			reply := protocol.ProbeReply{Available: host.freeSlots()}
			if sendMsg(conn, tc.WriteTimeout, protocol.MsgProbeReply, reply.Marshal()) != nil {
				return attach, slot{}, false
			}
		case protocol.MsgPlayerAttach:
			var err error
			if attach, err = protocol.UnmarshalPlayerAttach(payload); err != nil {
				return attach, slot{}, false
			}
			sl, ok := host.claim(attach.PlayerID)
			reply := protocol.AttachReply{OK: ok}
			switch {
			case !ok:
				reply.Reason = "at capacity"
			case sl.dgram != nil:
				reply.Datagram = sl.dgram.grant()
			}
			err = sendMsg(conn, tc.WriteTimeout, protocol.MsgAttachReply, reply.Marshal())
			if ok && err != nil {
				host.unclaim(attach.PlayerID, sl)
			}
			conn.SetReadDeadline(time.Time{})
			return attach, sl, ok && err == nil
		default:
			return attach, slot{}, false
		}
	}
}

// frameGapDivisor sets how close an early frame may follow the previous
// one: a wake renders at once when the last frame started at least
// frameInterval/frameGapDivisor ago, and when that gap is up otherwise.
const frameGapDivisor = 4

// runVideoSession streams rendered, encoded frames for one attached player
// until the connection breaks, a Bye arrives, or stop closes. It handles
// the receiver-driven RateChange messages of §3.3 (one that repeats the
// current level asks for a keyframe). With a datagram session (sl.dgram,
// the grant the attach reply carried) frames ride UDP from the moment the
// player's hello lands, and this connection carries control alone. Every
// frame write carries writeTimeout as a deadline, so a player that stops
// reading cannot pin the session goroutine. The caller owns conn and sl
// and ran serveAttach on them; wg tracks the internal reader goroutine.
//
// Frames run on two clocks, the fog's counterpart of the cloud's tickLoop.
// The frame clock sends one every frameInterval whatever happens. The wake
// (sl.wake) is a rate limit, not a delay: when the player's own avatar
// changes, the session sends a frame at once if the last one started at
// least minFrameGap ago, and otherwise when it will have. An early frame
// restarts the clock from its own start, so it only ever shortens a gap and
// the clock frame after it comes a period later. The loop is the fog tier's
// hot path; frameStream.sendFrame is one iteration of it.
func runVideoSession(
	conn net.Conn,
	fr *protocol.FrameReader,
	attach protocol.PlayerAttach,
	sl slot,
	frameInterval time.Duration,
	writeTimeout time.Duration,
	host sessionHost,
	stop <-chan struct{},
	wg *sync.WaitGroup,
) {
	playerID, level := attach.PlayerID, game.QualityLevel(attach.QualityLevel)
	if level < 1 || level > game.NumQualityLevels {
		level = 3
	}
	// Rate changes arrive asynchronously with the frame clock; the frame
	// loop owns the encoder and all writes on conn, so the reader only
	// signals.
	rateCh := make(chan game.QualityLevel, 1)
	readDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(readDone)
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				return
			}
			switch typ {
			case protocol.MsgRateChange:
				rc, rerr := protocol.UnmarshalRateChange(payload)
				if rerr == nil && rc.QualityLevel >= 1 && rc.QualityLevel <= game.NumQualityLevels {
					select {
					case rateCh <- game.QualityLevel(rc.QualityLevel):
					default:
					}
				}
			case protocol.MsgAction:
				// Outage-window input rerouting: only the attached
				// player's own actions are accepted.
				am, aerr := protocol.UnmarshalActionMsg(payload)
				if aerr != nil || am.Action.Player != int(playerID) {
					continue
				}
				host.submitAction(am.Action)
			case protocol.MsgBye:
				return
			}
		}
	}()

	out := protocol.GetBuffer()
	defer protocol.PutBuffer(out)
	fs := newFrameStream(conn, playerID, level, writeTimeout, host, sl.dgram, out)
	ticker := time.NewTicker(frameInterval)
	defer ticker.Stop()
	minFrameGap := frameInterval / frameGapDivisor
	due := time.NewTimer(minFrameGap)
	defer due.Stop()
	// armed: due was Reset and its channel not yet received from. As in
	// tickLoop, go.mod predates go 1.23, so a stopped timer or a reset
	// ticker that already fired keeps its value buffered; whoever disarms
	// or resets drains it.
	armed := true
	disarm := func() {
		if armed && !due.Stop() {
			<-due.C
		}
		armed = false
	}
	disarm()
	// lastFrame is when the last frame started.
	var lastFrame time.Time
	frame := func(early bool) bool {
		disarm()
		lastFrame = time.Now()
		if early {
			// Restart the clock a full period from this frame's start,
			// before the view is taken. Reset keeps the period at
			// frameInterval; a clock frame leaves the ticker on its phase.
			ticker.Reset(frameInterval)
			select {
			case <-ticker.C:
			default:
			}
		}
		return fs.sendFrame(early)
	}
	// A player whose avatar this host already holds — it migrated, resumed
	// or fell back here — gets its first frame with the attach. A fresh
	// joiner usually attaches before its spawn has arrived; a frame now
	// would be centred on the middle of the world, so it waits for the
	// spawn, whose delta wakes the session.
	host.viewInto(&fs.view, fs.playerID)
	if fs.viewHasAvatar() && !frame(false) {
		return
	}
	for {
		select {
		case <-stop:
			return
		case <-readDone:
			return
		case newLevel := <-rateCh:
			if newLevel != level {
				level = newLevel
				fs.setLevel(level)
			} else {
				// A RateChange that changes nothing is a keyframe
				// request: the player lost a datagram and has no
				// reference for the P-frames that follow it.
				fs.encoder.ForceKeyframe()
			}
		case <-sl.wake:
			if armed {
				continue
			}
			if wait := minFrameGap - time.Since(lastFrame); wait > 0 {
				due.Reset(wait)
				armed = true
			} else if !frame(true) {
				return
			}
		case <-due.C:
			armed = false
			if !frame(true) {
				return
			}
		case <-ticker.C:
			if !frame(false) {
				return
			}
		}
	}
}

// frameStream is one video session's per-frame state, all of it reused
// from frame to frame so the steady-state loop allocates nothing: the
// view snapshot the source refills, the renderer's framebuffer (whose
// damage only this session's encoder consumes, so a frame costs what moved
// in it), the encoder's reference (EncodeInto), and the pooled buffer the
// encoded frame plus its header — the 5-byte stream header or the 33-byte
// datagram header — are appended into and flushed from with a single
// Write. The pooled buffer belongs to the session until it ends —
// per-frame it is simply truncated and refilled, never handed to another
// goroutine.
type frameStream struct {
	conn         net.Conn
	playerID     int
	writeTimeout time.Duration
	host         sessionHost

	renderer *render.Renderer
	encoder  *videocodec.Encoder
	frame    *render.Frame
	view     virtualworld.Snapshot
	ef       videocodec.EncodedFrame
	out      *protocol.Buffer
	// sess is the datagram session the attach reply granted, nil when none
	// was; dgramLive flips when the player's hello lands, and from then on
	// every frame of the session is a datagram.
	sess      *dgramSession
	dgramLive bool
}

func newFrameStream(conn net.Conn, playerID int32, level game.QualityLevel, writeTimeout time.Duration,
	host sessionHost, sess *dgramSession, out *protocol.Buffer) *frameStream {
	fs := &frameStream{conn: conn, playerID: int(playerID), writeTimeout: writeTimeout, host: host, sess: sess, out: out}
	fs.setLevel(level)
	fs.frame = render.NewFrame(fs.renderer.Resolution())
	return fs
}

// setLevel switches the session to a quality level's resolution and
// bitrate; the next frame restarts the GOP at the new size.
func (fs *frameStream) setLevel(level game.QualityLevel) {
	fs.renderer = render.NewRenderer(render.ResolutionForLevel(int(level)))
	fs.encoder = videocodec.NewEncoder(game.MustQuality(level).BitrateKbps)
}

// viewHasAvatar reports whether the view last taken shows the player's own
// avatar, that is, whether it was centred on it.
func (fs *frameStream) viewHasAvatar() bool {
	for i := range fs.view.Entities {
		if e := &fs.view.Entities[i]; e.Kind == virtualworld.KindAvatar && e.Owner == fs.playerID {
			return true
		}
	}
	return false
}

// sendFrame renders, encodes and sends one frame of the player's current
// view; early says a wake sent it, not the frame clock. It reports false
// when the session connection broke.
func (fs *frameStream) sendFrame(early bool) bool {
	vp := fs.host.viewInto(&fs.view, fs.playerID)
	if fs.sess != nil && !fs.dgramLive {
		if _, ok := fs.sess.remote(); ok {
			// The hello landed: this frame is the first to ride
			// UDP. Restart the GOP so the receiver — which reads
			// none of the TCP frames sent before it — decodes
			// from the very first datagram.
			fs.dgramLive = true
			fs.encoder.ForceKeyframe()
		}
	}
	fs.renderer.RenderInto(fs.view, vp, fs.frame)
	fullBefore := fs.encoder.FullEncodes()
	fs.encoder.EncodeInto(fs.frame, &fs.ef)
	return fs.send(fs.encoder.FullEncodes() != fullBefore, early)
}

// send puts the encoded frame on the session's one video transport: the
// TCP connection until the player's hello lands, a datagram from then on.
// A datagram that cannot go out — too large, or refused by the socket — is
// a lost frame and nothing else: its sequence number is spent, so the
// player's gap rule asks for a keyframe and §3.3's controller sees the
// loss. full says the encoder worked through every tile, early that a wake
// sent the frame. It reports false when the TCP connection broke.
func (fs *frameStream) send(full, early bool) bool {
	if fs.dgramLive {
		var sent bool
		if fs.out.B, sent = fs.sess.sendFrame(fs.out.B, &fs.ef, fs.view.Tick); !sent {
			return true
		}
	} else if sendInto(fs.conn, fs.writeTimeout, &fs.out.B, protocol.MsgVideoFrame, &fs.ef) != nil {
		return false
	}
	fs.host.addFrame(fs.ef.SizeBits(), full, early)
	return true
}
