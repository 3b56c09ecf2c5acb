package fognet

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
	"cloudfog/internal/transport"
	"cloudfog/internal/videocodec"
)

// fogDatagram owns a fog node's UDP video socket: one receive loop
// registers player hellos, and every video session whose hello landed
// sends its frames through the shared socket. Tokens authenticate
// hellos — a datagram session is addressed to whoever proves knowledge
// of the token the attach reply carried, which is also how the fog learns
// the player's NAT-visible source address.
type fogDatagram struct {
	pc   transport.DatagramConn
	addr string // advertised in every attach reply's grant

	writeTimeout time.Duration

	mu       sync.Mutex
	sessions map[uint64]*dgramSession // token → session; guarded by mu
	tokens   *rng.Rand                // token stream; guarded by mu

	// Counters (atomic: the send path is the 30 fps hot loop).
	frames   atomic.Int64 // video frames sent as datagrams
	hellos   atomic.Int64 // valid hellos registered
	unknown  atomic.Int64 // datagrams with no matching token/kind
	sessOpen atomic.Int64 // sessions that went live (hello arrived)

	wg sync.WaitGroup
}

// newFogDatagram binds the UDP socket and starts the hello receive loop.
// addr defaults to the stream listener's host with an ephemeral port, so
// the advertised datagram endpoint is reachable wherever the TCP one is.
func newFogDatagram(addr, streamAddr string, wrap transport.WrapDatagramFunc,
	writeTimeout time.Duration, seed uint64) (*fogDatagram, error) {
	if addr == "" {
		host, _, err := net.SplitHostPort(streamAddr)
		if err != nil {
			host = "127.0.0.1"
		}
		addr = net.JoinHostPort(host, "0")
	}
	uc, err := transport.ListenDatagram(addr)
	if err != nil {
		return nil, err
	}
	var pc transport.DatagramConn = uc
	if wrap != nil {
		pc = wrap(pc)
	}
	dg := &fogDatagram{
		pc:           pc,
		addr:         uc.LocalAddr().String(),
		writeTimeout: writeTimeout,
		sessions:     make(map[uint64]*dgramSession),
		tokens:       rng.New(seed).SplitNamed("fog-dgram-tokens"),
	}
	dg.wg.Add(1)
	go dg.readLoop()
	return dg, nil
}

func (dg *fogDatagram) close() {
	dg.pc.Close()
	dg.wg.Wait()
}

// readLoop is the fog's only datagram reader: it registers hellos and
// drops everything else. Payload bytes past the header are ignored, so
// the receive buffer is reused for every datagram.
func (dg *fogDatagram) readLoop() {
	defer dg.wg.Done()
	buf := make([]byte, transport.MaxDatagram)
	var hdr transport.Header
	for {
		//lint:ignore conndeadline the read must block indefinitely: hellos arrive whenever a player upgrades, and close unblocks it
		n, src, err := dg.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		if _, perr := transport.ParseHeader(buf[:n], &hdr); perr != nil || hdr.Kind != transport.DgramHello {
			dg.unknown.Add(1)
			continue
		}
		dg.mu.Lock()
		sess := dg.sessions[hdr.Token]
		dg.mu.Unlock()
		if sess == nil || hdr.Epoch != sess.epoch {
			dg.unknown.Add(1)
			continue
		}
		dg.hellos.Add(1)
		sess.setRemote(src, dg)
	}
}

// newSession registers a datagram session under the authority epoch its
// frames will be stamped with. The session is inert until the player's
// hello arrives.
func (dg *fogDatagram) newSession(epoch uint64) *dgramSession {
	dg.mu.Lock()
	tok := uint64(dg.tokens.Int63())
	for tok == 0 || dg.sessions[tok] != nil {
		tok = uint64(dg.tokens.Int63())
	}
	sess := &dgramSession{dg: dg, token: tok, epoch: epoch}
	dg.sessions[tok] = sess
	dg.mu.Unlock()
	return sess
}

func (dg *fogDatagram) drop(sess *dgramSession) {
	dg.mu.Lock()
	delete(dg.sessions, sess.token)
	dg.mu.Unlock()
}

// dgramSession is one player's datagram video state, owned by that
// player's video-session goroutine except for the remote address, which
// the shared read loop sets when the hello arrives.
type dgramSession struct {
	dg    *fogDatagram
	token uint64
	epoch uint64
	seq   uint64 // per-frame sequence; touched only by the frame loop

	mu    sync.Mutex
	raddr netip.AddrPort // guarded by mu
	ready bool           // guarded by mu
}

// setRemote records the player's hello source address. Only the first
// hello flips the session live (counted once); repeats refresh the
// address, which follows the player across a NAT rebinding.
func (s *dgramSession) setRemote(addr netip.AddrPort, dg *fogDatagram) {
	s.mu.Lock()
	first := !s.ready
	s.raddr = addr
	s.ready = true
	s.mu.Unlock()
	if first {
		dg.sessOpen.Add(1)
	}
}

// remote returns the player's datagram address once the hello arrived.
func (s *dgramSession) remote() (netip.AddrPort, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.raddr, s.ready
}

// grant is what the attach reply tells the player about the session.
func (s *dgramSession) grant() protocol.DatagramGrant {
	return protocol.DatagramGrant{Addr: s.dg.addr, Token: s.token, Epoch: s.epoch}
}

// sendFrame encodes one video frame into buf (per-frame header plus the
// same EncodedFrame payload the TCP path carries) and sends it as a
// single datagram. It reports whether the frame went out. Before the hello
// there is nowhere to send it; after, a frame too large for a datagram or
// refused by the socket is lost, its sequence number spent all the same so
// that the receiver sees the gap. buf is the session's pooled scratch: with
// enough capacity the whole path is allocation-free.
func (s *dgramSession) sendFrame(buf []byte, ef *videocodec.EncodedFrame, tick uint64) ([]byte, bool) {
	addr, ok := s.remote()
	if !ok {
		return buf, false
	}
	hdr := transport.Header{
		Kind:  transport.DgramFrame,
		Token: s.token,
		Epoch: s.epoch,
		Seq:   s.seq,
		Tick:  tick,
	}
	s.seq++
	buf = hdr.AppendTo(buf[:0])
	buf = ef.AppendTo(buf)
	if len(buf) > transport.MaxDatagram {
		return buf, false
	}
	if s.dg.writeTimeout > 0 {
		s.dg.pc.SetWriteDeadline(time.Now().Add(s.dg.writeTimeout))
	}
	if _, err := s.dg.pc.WriteToUDPAddrPort(buf, addr); err != nil {
		return buf, false
	}
	s.dg.frames.Add(1)
	return buf, true
}
