package transport

import (
	"errors"
	"net"
	"net/netip"
	"time"
)

// MaxDatagram bounds one datagram including its header. It stays under
// the conventional UDP payload ceiling (65507 bytes on IPv4); a video
// frame that would exceed it is dropped, a lost datagram, rather than
// fragmented.
const MaxDatagram = 64 << 10

// DatagramConn is the unreliable, message-oriented half of the seam: the
// fog→player video path when both ends opt into UDP. The AddrPort forms
// are used (rather than net.PacketConn's net.Addr ones) because they keep
// the per-frame send and receive paths allocation-free — *net.UDPConn
// implements this interface directly.
type DatagramConn interface {
	// ReadFromUDPAddrPort reads one datagram and its source address.
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	// WriteToUDPAddrPort sends one datagram to addr.
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	// LocalAddr returns the bound address.
	LocalAddr() net.Addr
	// SetReadDeadline bounds blocking reads.
	SetReadDeadline(t time.Time) error
	// SetWriteDeadline bounds blocking writes.
	SetWriteDeadline(t time.Time) error
	// Close releases the socket and unblocks pending I/O.
	Close() error
}

var _ DatagramConn = (*net.UDPConn)(nil)

// WrapDatagramFunc wraps a datagram socket — the faultnet injection point
// for datagram loss, reordering, and duplication in chaos tests.
type WrapDatagramFunc func(DatagramConn) DatagramConn

// ListenDatagram opens a UDP datagram socket on addr ("127.0.0.1:0" for
// an ephemeral port).
func ListenDatagram(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.ListenUDP("udp", ua)
}

// Datagram kinds.
const (
	// DgramHello announces the receiver: the player sends it to the fog's
	// datagram socket its attach reply granted, and its source address is
	// where the session's frames will be sent. Repeated until the first
	// frame arrives (hellos are datagrams too — they can be lost).
	DgramHello uint8 = 1
	// DgramFrame carries one encoded video frame.
	DgramFrame uint8 = 2
)

// HeaderLen is the fixed size of a datagram header: kind (1), session
// token (8), epoch (8), sequence (8), world tick (8).
const HeaderLen = 33

// ErrShortDatagram is returned when a datagram cannot hold a header.
var ErrShortDatagram = errors.New("transport: datagram shorter than header")

// ErrBadKind is returned for an unknown datagram kind byte.
var ErrBadKind = errors.New("transport: unknown datagram kind")

// Header is the per-datagram header of the unreliable video path.
//
// Token identifies the session (minted by the sender in the TCP attach
// reply, echoed by the receiver's hello) so a datagram socket serving
// many players can route without trusting source addresses alone. Epoch
// is the cloud authority epoch the sender streams under, and Seq is the
// per-session datagram sequence — together they give the receiver a
// total order to drop stale or duplicated frames against. Tick is the
// world tick of the carried frame, for observability; staleness is
// decided on (Epoch, Seq) alone.
type Header struct {
	Kind  uint8
	Token uint64
	Epoch uint64
	Seq   uint64
	Tick  uint64
}

// AppendTo appends the fixed-size header to buf and returns the extended
// slice, PR 3 append-encoder style: no intermediate allocation, caller
// owns the buffer.
func (h Header) AppendTo(buf []byte) []byte {
	return append(buf,
		h.Kind,
		byte(h.Token>>56), byte(h.Token>>48), byte(h.Token>>40), byte(h.Token>>32),
		byte(h.Token>>24), byte(h.Token>>16), byte(h.Token>>8), byte(h.Token),
		byte(h.Epoch>>56), byte(h.Epoch>>48), byte(h.Epoch>>40), byte(h.Epoch>>32),
		byte(h.Epoch>>24), byte(h.Epoch>>16), byte(h.Epoch>>8), byte(h.Epoch),
		byte(h.Seq>>56), byte(h.Seq>>48), byte(h.Seq>>40), byte(h.Seq>>32),
		byte(h.Seq>>24), byte(h.Seq>>16), byte(h.Seq>>8), byte(h.Seq),
		byte(h.Tick>>56), byte(h.Tick>>48), byte(h.Tick>>40), byte(h.Tick>>32),
		byte(h.Tick>>24), byte(h.Tick>>16), byte(h.Tick>>8), byte(h.Tick),
	)
}

func be64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// ParseHeader decodes the header at the front of a received datagram into
// h and returns the payload that follows, aliasing b (valid until the
// receive buffer is reused — the same contract as protocol.FrameReader).
func ParseHeader(b []byte, h *Header) ([]byte, error) {
	if len(b) < HeaderLen {
		return nil, ErrShortDatagram
	}
	h.Kind = b[0]
	if h.Kind != DgramHello && h.Kind != DgramFrame {
		return nil, ErrBadKind
	}
	h.Token = be64(b[1:])
	h.Epoch = be64(b[9:])
	h.Seq = be64(b[17:])
	h.Tick = be64(b[25:])
	return b[HeaderLen:], nil
}
