package fognet

import (
	"net"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/virtualworld"
)

// Admission and membership: who is let in (handleConn and the admit*
// handlers, each of which installs the peer's link), what the cloud reads
// from them afterwards, and how a supernode is found dead and removed.

// supernodeConn is a registered supernode: its link plus what the cloud
// tracks about it. The fields below the link are guarded by the cloud's mu.
type supernodeConn struct {
	*link
	id         uint32
	streamAddr string
	capacity   int
	// missed counts consecutive unanswered heartbeats.
	missed int
	// lastAttached is the player count from the latest heartbeat ack — the
	// load the ladder ranking sorts by.
	lastAttached int
	// players and interestGen are the latest accepted interest report (Gen
	// counts a fog's reports from 1, so 0 means the supernode never reported
	// and stays on the full-world stream).
	players     []int32
	interestGen uint32
	// interest is the supernode's AoI cell subscription, nil until a tick
	// has recomputed it after the first report (nil = full-world stream).
	// Only the tick loop writes it, in place, under mu; fanOut reads it on
	// that goroutine after the unlock.
	interest *interestSet
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
// checkpoints) through its link. A newer standby replaces an older one.
func (s *CloudServer) serveStandby(conn net.Conn, fr *protocol.FrameReader, hello protocol.StandbyHello) {
	sb := s.newLink(conn)
	s.mu.Lock()
	prev := s.standby
	s.standby = sb
	s.standbyAddr = hello.Addr
	s.stats.Resilience.StandbyAttaches++
	// Seed the follower inside the same critical section that installs
	// it: the queue is empty, so the checkpoint is guaranteed to precede
	// any log entry the tick loop enqueues afterwards.
	ckpt := s.encodeCheckpointLocked(1)
	sb.enqueue(outMsg{typ: protocol.MsgCheckpoint, payload: ckpt.buf.B, shared: ckpt})
	s.mu.Unlock()
	sb.start(&s.wg)
	if prev != nil {
		prev.shutdown()
	}
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

// newLink builds the link of an accepted connection with the server's
// queue bound, write timeout and counters.
func (s *CloudServer) newLink(conn net.Conn) *link {
	return newLink(conn, s.cfg.SendQueueLen, s.cfg.WriteTimeout, &s.links)
}

// admitSupernode is the one supernode admission: it registers the
// supernode and answers with a full snapshot to seed its replica from. A
// first contact (MsgSupernodeHello, req nil) is welcomed; a resume after
// a network blip or a failover (MsgResume, req set) is registered exactly
// like a fresh one — replicas may hold ticks the restored history never
// committed, so they always reseed — and the reply tells it so.
func (s *CloudServer) admitSupernode(conn net.Conn, fr *protocol.FrameReader, hello protocol.SupernodeHello, req *protocol.Resume) {
	sn := &supernodeConn{link: s.newLink(conn), streamAddr: hello.StreamAddr, capacity: hello.Capacity}
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

	// The snapshot makes this reply a megabyte in a big world, so it is
	// encoded outside mu and written directly; what the tick loop enqueues
	// meanwhile waits in the queue until the writer starts behind it.
	typ, payload := admissionReply(req, reply)
	if sendMsg(conn, s.cfg.WriteTimeout, typ, payload) != nil {
		s.unregisterSupernode(sn, false)
		return
	}
	sn.start(&s.wg)
	// The new supernode changes every player's best failover ladder.
	s.broadcastCandidates()
	s.snReadLoop(sn, fr)
}

// serveFallbackStream runs a cloud-rendered video session, the one a
// supernode runs but from the authoritative world; handleConn consumed the
// probe that opened it.
func (s *CloudServer) serveFallbackStream(conn net.Conn, fr *protocol.FrameReader) {
	defer conn.Close()
	fb := cloudFallback{s}
	attach, sl, ok := serveAttach(conn, fr, s.tc, true, fb)
	if !ok {
		return
	}
	defer fb.unclaim(attach.PlayerID, sl)
	runVideoSession(conn, fr, attach, sl, DefaultFrameInterval, s.cfg.WriteTimeout, fb, s.stop, &s.wg)
}

// cloudFallback is the cloud as a sessionHost: it never refuses a session,
// renders from the authoritative world, routes its egress into the cloud's
// bandwidth accounting and grants no datagram path — the last rung of the
// ladder favors the transport that works everywhere over the one that
// performs best. Its slots' wake channels join the cloud's attach set, so
// a tick that changes a fallback player's avatar wakes its session as a
// batch does on a fog.
type cloudFallback struct{ s *CloudServer }

// submitAction: the cloud is the authority, so rerouted inputs go straight
// into the pending queue (the video-session reader already verified the
// sender).
func (c cloudFallback) submitAction(a virtualworld.Action) {
	c.s.mu.Lock()
	c.s.queueActionLocked(a)
	c.s.mu.Unlock()
}

func (c cloudFallback) viewInto(dst *virtualworld.Snapshot, player int) virtualworld.Viewport {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.world.ViewInto(dst, player, render.ViewHalfWidth, render.ViewHalfHeight)
}

func (c cloudFallback) freeSlots() int { return 1 << 15 } // effectively unbounded

func (c cloudFallback) claim(player int32) (slot, bool) {
	sl := slot{wake: make(chan struct{}, 1)}
	c.s.mu.Lock()
	c.s.attached[player] = sl.wake
	c.s.stats.FallbackPlayers++
	c.s.mu.Unlock()
	return sl, true
}

// unclaim: as on a fog, a player attached twice keeps its entry until the
// session that claimed it last ends.
func (c cloudFallback) unclaim(player int32, sl slot) {
	c.s.mu.Lock()
	if c.s.attached[player] == sl.wake {
		delete(c.s.attached, player)
	}
	c.s.stats.FallbackPlayers--
	c.s.mu.Unlock()
}

func (c cloudFallback) addFrame(bits int, _, _ bool) {
	c.s.mu.Lock()
	c.s.stats.FallbackBits += int64(bits)
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
	pl := s.newLink(conn)
	var old *link
	s.mu.Lock()
	_, survived := s.world.Avatar(int(id))
	known := req == nil || survived || s.resumable[id]
	if known {
		if req != nil {
			// Session table said resumable but the avatar is gone (departed
			// after the checkpoint, removal replayed from the log): a fresh
			// spawn at the centre rather than refusing the player.
			width, height := s.world.Size()
			join.SpawnX, join.SpawnY = width/2, height/2
			s.stats.Resilience.ResumedPlayers++
		}
		av := s.world.SpawnAvatar(int(id), join.SpawnX, join.SpawnY) // a surviving avatar is returned untouched
		if req == nil || !survived {
			// The spawn is a membership change the next tick's delta stream
			// (and the standby's log) must carry. A join is an input: the
			// spawn rides an early tick, not the metronome, so the joiner's
			// supernode holds its avatar by the time the joiner attaches.
			s.sessionDeltas = append(s.sessionDeltas, virtualworld.Delta{ID: av.ID, Entity: av})
			s.wakeTickLocked()
		}
		old = s.players[id]
		s.players[id] = pl
		delete(s.resumable, id) // admitted either way: the resumable claim is spent
		// The reply is a few candidates long, so it is encoded and queued in
		// the critical section that makes the link reachable: the queue is
		// empty, and no candidate push can get in front of it.
		typ, payload := admissionReply(req, protocol.ResumeReply{
			OK:              true,
			Epoch:           s.epoch,
			Tick:            s.world.Tick(),
			Candidates:      s.candidateInfosLocked(),
			CloudStreamAddr: s.Addr(),
			StandbyAddr:     s.standbyAddr,
		})
		pl.enqueue(outMsg{typ: typ, payload: payload})
	}
	s.mu.Unlock()
	if !known {
		//lint:ignore epochstamp refusal reply: OK=false carries no orderable state, the client falls back to a full rejoin
		refuse := protocol.ResumeReply{Reason: "unknown session"}
		_ = sendMsg(conn, s.cfg.WriteTimeout, protocol.MsgResumeReply, refuse.Marshal()) // the close says no just as well
		conn.Close()
		return
	}
	pl.start(&s.wg)
	if old != nil {
		old.shutdown()
	}
	s.playerLoop(fr, id, pl)
}

// playerLoop is the action loop: the player streams inputs until it
// leaves. The reader reuses one buffer per connection; every message is
// decoded into owned values before the next read.
func (s *CloudServer) playerLoop(fr *protocol.FrameReader, playerID int32, pl *link) {
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
			s.dropPlayer(playerID, pl)
			return
		}
	}
	s.dropPlayer(playerID, pl)
}

func (s *CloudServer) dropPlayer(id int32, pl *link) {
	s.mu.Lock()
	if s.players[id] == pl {
		delete(s.players, id)
		if av, ok := s.world.Avatar(int(id)); ok {
			// The departure is a membership change the delta stream and
			// the standby's log must carry.
			s.sessionDeltas = append(s.sessionDeltas, virtualworld.Delta{ID: av.ID, Removed: true})
		}
		s.world.RemovePlayer(int(id))
	}
	s.mu.Unlock()
	pl.shutdown()
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
			sn.enqueue(outMsg{typ: protocol.MsgHeartbeat, payload: sp.buf.B, shared: sp})
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
