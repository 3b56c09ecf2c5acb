// Package transport is the wire seam between the CloudFog tiers and the
// network: it owns dialing, listening, timeout policy, and the datagram
// framing that the session layer in internal/fognet builds on.
//
// Two transports exist today. The TCP stream transport carries everything
// that must be reliable and ordered — control messages, checkpoints,
// resume handshakes, and (by default) video — with wire behavior
// byte-for-byte identical to the pre-seam fognet plumbing. The UDP
// datagram path (DatagramConn plus the per-frame Header) carries the
// fog→player video stream when both ends opt in: a lost frame is simply
// skipped instead of retransmitted in front of newer ones, which is what
// lets the §3.3 receiver-driven adaptation controller see real loss
// instead of TCP's hidden retransmits.
//
// Timeout policy lives in Config so every dial, handshake, and write in
// the live networking packages flows through one place instead of
// scattered per-call constants.
package transport

import (
	"net"
	"time"
)

// Timeout defaults. These were previously package constants inside fognet
// (and a hardcoded handshake constant that ignored the -dial-timeout
// flag); they now live on the seam so all tiers share one policy.
const (
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 5 * time.Second
	// DefaultWriteTimeout bounds any single protocol write.
	DefaultWriteTimeout = 2 * time.Second
	// DefaultHandshakeTimeout bounds the first message of a new
	// connection, so a connect-and-hang peer cannot pin a handler
	// goroutine forever.
	DefaultHandshakeTimeout = 5 * time.Second
)

// Config is the shared timeout policy for one component's connections.
// The zero value is usable: WithDefaults fills every unset field.
type Config struct {
	// DialTimeout bounds outbound connection establishment.
	DialTimeout time.Duration
	// WriteTimeout bounds any single protocol write.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds each message of a session-establishing
	// exchange (registration, probe/attach, resume).
	HandshakeTimeout time.Duration
}

// WithDefaults returns the config with unset fields filled in.
// HandshakeTimeout defaults to DialTimeout when that is set — the
// handshake is the tail of the dial, so one flag should govern both.
func (c Config) WithDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = c.DialTimeout
	}
	return c
}

// DialFunc establishes an outbound stream connection; it exists so tests
// and the chaos demo can route dials through faultnet injectors.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// TCP is the reliable stream transport: it establishes and accepts stream
// connections under one timeout policy. Its zero value dials with
// net.DialTimeout under Config defaults; DialFunc is the fault-injection
// hook chaos tests use.
type TCP struct {
	// Config is the timeout policy; zero fields take package defaults.
	Config Config
	// DialFunc, when set, replaces net.DialTimeout.
	DialFunc DialFunc
}

// Dial makes one outbound connection to addr, bounded by
// Config.DialTimeout.
func (t TCP) Dial(addr string) (net.Conn, error) {
	cfg := t.Config.WithDefaults()
	dial := t.DialFunc
	if dial == nil {
		dial = net.DialTimeout
	}
	return dial("tcp", addr, cfg.DialTimeout)
}

// Listen starts accepting stream connections on addr.
func (t TCP) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}
