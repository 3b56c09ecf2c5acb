package fognet

import (
	"errors"
	"net"
	"net/netip"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/transport"
	"cloudfog/internal/videocodec"
)

// dgHelloAttempts bounds how many hellos the player sends before
// abandoning the datagram path and staying on TCP. Hellos are datagrams
// too — any one of them can be lost — so the handshake is
// repeat-until-frame.
const dgHelloAttempts = 8

// dgResult is how a datagram video session ended.
type dgResult int

const (
	// dgClosed: the client is shutting down.
	dgClosed dgResult = iota
	// dgStall: the datagram stream went silent past VideoReadTimeout;
	// treat it like any other stream failure and migrate.
	dgStall
	// dgNoUpgrade: there was no grant, or the hello handshake never
	// completed, so the fog never switched away from TCP; read the
	// session's TCP stream.
	dgNoUpgrade
)

// runDatagramVideo is the player's unreliable video path: it opens a UDP
// socket, helloes the fog's datagram endpoint with the granted token
// until the first frame arrives, then receives frames until the client
// closes or the stream stalls. conn is the session's TCP connection,
// which carries control alone (rate changes out, nothing read) for the
// duration.
//
// Ordering discipline: every datagram is classified by the RecvTracker —
// only Fresh frames are delivered, so a frame older than one already
// shown is never delivered, no matter how it was lost, duplicated, or
// reordered in flight — and recvDatagramFrame decodes a delivered P-frame
// only when the frame before it was decoded too. The tracker's window
// accounting feeds the adaptation controller the loss fraction TCP would
// have hidden.
func (p *PlayerClient) runDatagramVideo(conn net.Conn, grant protocol.DatagramGrant, st *videoRecvState) dgResult {
	raddr, aerr := netip.ParseAddrPort(grant.Addr)
	if aerr != nil {
		return dgNoUpgrade
	}
	pc, lerr := transport.ListenDatagram(":0")
	if lerr != nil {
		return dgNoUpgrade
	}
	var dc transport.DatagramConn = pc
	if p.cfg.WrapDatagram != nil {
		dc = p.cfg.WrapDatagram(pc)
	}
	p.mu.Lock()
	p.videoDgram = dc // published so Close can unblock the read below
	lostBase, reorderBase := p.stats.DatagramLost, p.stats.DatagramReordered
	p.mu.Unlock()
	// The first datagram to arrive need not be the first one sent: the
	// session starts waiting for a keyframe.
	st.needKey = true
	defer func() {
		p.mu.Lock()
		p.videoDgram = nil
		p.mu.Unlock()
		dc.Close()
		st.needKey = false // the TCP stream it hands back to loses nothing
	}()

	var tr transport.RecvTracker
	// syncTracker republishes the tracker's gap accounting (lost and
	// late-filled) under the client's lock; stale and duplicate drops are
	// counted as they happen.
	syncTracker := func() {
		ts := tr.Stats()
		p.mu.Lock()
		p.stats.DatagramLost = lostBase + int64(ts.Lost)
		p.stats.DatagramReordered = reorderBase + int64(ts.Reordered)
		p.mu.Unlock()
	}
	// lossFn gives maybeAdapt the window's datagram loss fraction.
	lossFn := func() float64 {
		delivered, lost, _ := tr.TakeWindow()
		syncTracker()
		if delivered+lost == 0 {
			return 0
		}
		return float64(lost) / float64(delivered+lost)
	}

	buf := make([]byte, transport.MaxDatagram)
	var hdr transport.Header
	established := false
	// handleDatagram classifies and (when fresh) decodes one datagram.
	handleDatagram := func(n int) {
		payload, perr := transport.ParseHeader(buf[:n], &hdr)
		if perr != nil || hdr.Kind != transport.DgramFrame || hdr.Token != grant.Token {
			return
		}
		switch tr.Track(hdr.Epoch, hdr.Seq) {
		case transport.Fresh:
			established = true
			p.recvDatagramFrame(st, conn, hdr.Seq, payload)
			p.maybeAdapt(st, conn, lossFn)
		case transport.Duplicate:
			p.mu.Lock()
			p.stats.DatagramDuplicates++
			p.mu.Unlock()
		default: // Stale: arrived behind a delivered frame — drop it.
			p.mu.Lock()
			p.stats.DatagramStale++
			p.mu.Unlock()
		}
	}

	//lint:ignore epochstamp hello carries identity only; Seq/Tick are per-frame stamps the session assigns after upgrade
	hello := transport.Header{Kind: transport.DgramHello, Token: grant.Token, Epoch: grant.Epoch}
	helloBuf := hello.AppendTo(make([]byte, 0, transport.HeaderLen))
	attemptInterval := p.cfg.VideoReadTimeout / 4
	for attempt := 0; attempt < dgHelloAttempts && !established; attempt++ {
		select {
		case <-p.stop:
			return dgClosed
		default:
		}
		dc.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
		if _, werr := dc.WriteToUDPAddrPort(helloBuf, raddr); werr != nil {
			return dgNoUpgrade
		}
		deadline := time.Now().Add(attemptInterval)
		for !established && time.Now().Before(deadline) {
			dc.SetReadDeadline(deadline)
			n, _, rerr := dc.ReadFromUDPAddrPort(buf)
			if rerr != nil {
				break // timeout or closed: resend the hello
			}
			handleDatagram(n)
		}
	}
	if !established {
		select {
		case <-p.stop:
			return dgClosed
		default:
		}
		return dgNoUpgrade
	}
	p.mu.Lock()
	p.stats.DatagramSessions++
	p.mu.Unlock()

	for {
		select {
		case <-p.stop:
			syncTracker()
			return dgClosed
		default:
		}
		dc.SetReadDeadline(time.Now().Add(p.cfg.VideoReadTimeout))
		n, _, rerr := dc.ReadFromUDPAddrPort(buf)
		if rerr != nil {
			syncTracker()
			select {
			case <-p.stop:
				return dgClosed
			default:
			}
			return dgStall
		}
		handleDatagram(n)
	}
}

// recvDatagramFrame delivers one Fresh datagram under the gap rule. Fresh
// means newer, not next: after a sequence gap the reference of the
// P-frames that follow never arrived, and adding them onto the stale one
// would show a silently wrong picture until the GOP rolls over. So a gap —
// or the decoder itself missing its reference, as after a lost keyframe at
// a new resolution — puts the stream in the need-keyframe state: P-frames
// are dropped undecoded until an I-frame arrives, and the supernode is
// asked for one.
func (p *PlayerClient) recvDatagramFrame(st *videoRecvState, conn net.Conn, seq uint64, payload []byte) {
	if seq != st.dgSeq+1 {
		st.needKey = true
	}
	st.dgSeq = seq
	if errors.Is(p.decodeFrame(st, payload, true), videocodec.ErrNoReference) {
		st.needKey = true
	}
	if st.needKey {
		p.requestKeyframe(st, conn)
	}
}

// requestKeyframe asks the serving supernode to restart the GOP, at most
// once per adaptation window, by re-sending the current quality level:
// runVideoSession answers a RateChange that changes nothing with a
// keyframe. It rides the session's TCP connection, like every RateChange.
func (p *PlayerClient) requestKeyframe(st *videoRecvState, conn net.Conn) {
	now := time.Now()
	if now.Sub(st.keyAsked) < adaptWindow {
		return
	}
	st.keyAsked = now
	p.mu.Lock()
	level := p.stats.Level
	p.mu.Unlock()
	_ = p.sendRateChange(st, conn, level) // best effort: a dead link fails the next read
}
