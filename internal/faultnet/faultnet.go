// Package faultnet provides deterministic fault injection for net.Conn and
// net.Listener, so the networked CloudFog prototype can be exercised under
// the failure modes the paper's supernode tier actually exhibits: contributed
// desktops that slow down, silently vanish, freeze mid-stream, or reset
// connections (§3.2.2 churn handling).
//
// An Injector wraps connections and applies a Profile to every byte that
// crosses them:
//
//   - added one-way latency with jitter,
//   - a bandwidth cap (transmission-time shaping),
//   - probabilistic transitions into fault modes, and
//   - explicit, test-driven mode changes (Blackhole, Stall, Reset,
//     partitions) that apply to all wrapped connections at once, or — via
//     SetAddrMode — to every current and future connection to one
//     address, which is how a chaos test crashes a single tier (reset the
//     primary's address, leave the standby reachable).
//
// All randomness comes from internal/rng seeded by Profile.Seed: the
// sequence of fault decisions is reproducible bit-for-bit, which is what
// makes chaos tests assertable. Wrapped connections honor read and write
// deadlines even while a fault mode blocks them, so protocol code that
// defends itself with SetDeadline sees exactly the timeout it asked for.
//
// Fault modes model distinct real-world failures of a TCP peer:
//
//   - Blackhole: a silently dead peer. Writes succeed locally but are
//     discarded; reads stall. The peer sees silence — only liveness
//     heartbeats or read deadlines can detect this.
//   - Stall: a frozen peer (zero-window). Writes block; reads stall. Only
//     write deadlines and bounded send queues defend against this.
//   - Reset: an abrupt connection reset. Reads and writes fail immediately
//     and the underlying connection is closed.
//
// Healing a partition (back to Healthy) wakes all blocked readers/writers.
package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"

	"cloudfog/internal/rng"
)

// Mode is the fault state of a connection.
type Mode int

// Fault modes.
const (
	// Healthy delivers traffic, subject to latency and bandwidth shaping.
	Healthy Mode = iota
	// Blackhole discards writes and stalls reads (silently dead peer).
	Blackhole
	// Stall blocks writes and reads until healed (frozen peer).
	Stall
	// Reset fails reads and writes immediately (abrupt connection reset).
	Reset
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case Blackhole:
		return "blackhole"
	case Stall:
		return "stall"
	case Reset:
		return "reset"
	default:
		return "unknown"
	}
}

// ErrReset is returned by reads and writes on a reset connection.
var ErrReset = errors.New("faultnet: connection reset")

// ErrRefused is returned by Dial for an address forced into Reset mode —
// the synthetic equivalent of a crashed process whose port now answers
// with RST.
var ErrRefused = errors.New("faultnet: connection refused")

// timeoutError implements net.Error with Timeout() == true, matching what
// deadline-aware callers expect from a real net.Conn.
type timeoutError struct{}

func (timeoutError) Error() string   { return "faultnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrTimeout is the deadline-exceeded error for faultnet-blocked operations.
var ErrTimeout net.Error = timeoutError{}

// Profile parameterizes an Injector.
type Profile struct {
	// Seed drives every probabilistic decision; identical seeds replay
	// identical fault sequences.
	Seed uint64
	// AddedLatency is extra one-way delay applied to each write.
	AddedLatency time.Duration
	// LatencyJitter adds a uniform [0, LatencyJitter) component on top.
	LatencyJitter time.Duration
	// BandwidthKbps caps throughput; writes are delayed by their
	// transmission time at this rate. 0 means unlimited.
	BandwidthKbps float64
	// DropRate is the per-write probability that the connection silently
	// transitions to Blackhole (a vanished peer).
	DropRate float64

	// Datagram faults, applied per WriteToUDPAddrPort on wrapped packet
	// conns (see WrapPacketConn). Unlike the stream faults above they
	// affect single datagrams, not the connection's mode: UDP loss is
	// per-packet, not per-peer.
	//
	// DatagramDropRate is the probability one datagram is eaten.
	DatagramDropRate float64
	// DatagramReorderRate is the probability one datagram is held back
	// and delivered after the next one (a pairwise swap).
	DatagramReorderRate float64
	// DatagramDupRate is the probability one datagram is delivered twice.
	DatagramDupRate float64
}

// Stats counts injector activity.
type Stats struct {
	// Conns is the number of connections ever wrapped.
	Conns int
	// Writes is the number of Write calls observed.
	Writes int64
	// DiscardedWrites counts writes swallowed by Blackhole mode.
	DiscardedWrites int64
	// Resets counts connections that entered Reset mode.
	Resets int64
	// Blackholes counts connections that entered Blackhole mode.
	Blackholes int64
	// DelayedMs is the cumulative injected delay (latency + bandwidth).
	DelayedMs int64
	// RefusedDials counts dials synthetically refused because the target
	// address was in Reset mode (a "crashed" endpoint).
	RefusedDials int64
	// Datagrams counts WriteToUDPAddrPort calls on wrapped packet conns.
	Datagrams int64
	// DroppedDatagrams counts datagrams eaten — by DatagramDropRate or by
	// a non-Healthy per-address mode on either direction.
	DroppedDatagrams int64
	// ReorderedDatagrams counts datagrams delivered behind a later one.
	ReorderedDatagrams int64
	// DupDatagrams counts extra copies delivered by DatagramDupRate.
	DupDatagrams int64
}

// Injector wraps connections and injects the Profile's faults. All wrapped
// connections share one deterministic decision stream and respond together
// to SetMode/SetPartitioned.
type Injector struct {
	mu      sync.Mutex
	profile Profile
	r       *rng.Rand
	conns   map[*Conn]struct{}
	// addrModes holds per-address fault overrides keyed by dial target /
	// remote address; guarded by mu. Healthy entries are removed.
	addrModes map[string]Mode
	stats     Stats
}

// NewInjector builds an Injector for the profile.
func NewInjector(p Profile) *Injector {
	return &Injector{
		profile:   p,
		r:         rng.New(p.Seed),
		conns:     make(map[*Conn]struct{}),
		addrModes: make(map[string]Mode),
	}
}

// SetProfile swaps the fault profile for all future decisions — how a
// chaos test heals (or worsens) a lossy link mid-run. The deterministic
// decision stream keeps its position; only the rates change.
func (in *Injector) SetProfile(p Profile) {
	in.mu.Lock()
	in.profile = p
	in.mu.Unlock()
}

// WrapConn wraps an established connection. The connection inherits any
// per-address fault mode registered for its remote address.
func (in *Injector) WrapConn(c net.Conn) *Conn {
	addr := ""
	if ra := c.RemoteAddr(); ra != nil {
		addr = ra.String()
	}
	return in.wrap(c, addr)
}

func (in *Injector) wrap(c net.Conn, addr string) *Conn {
	fc := &Conn{
		inner:  c,
		inj:    in,
		addr:   addr,
		healCh: make(chan struct{}),
		closed: make(chan struct{}),
	}
	in.mu.Lock()
	in.conns[fc] = struct{}{}
	in.stats.Conns++
	m := in.addrModes[addr]
	in.mu.Unlock()
	if m != Healthy {
		fc.SetMode(m)
	}
	return fc
}

// Dial dials through the injector: the returned connection is wrapped and
// tagged with the dialed address, so SetAddrMode can target it later. A
// dial to an address currently in Reset mode is refused synthetically —
// the caller sees a crashed endpoint without any network round trip; an
// address in Blackhole or Stall mode yields a connection already in that
// mode (a partition that ate the SYN).
func (in *Injector) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	in.mu.Lock()
	m := in.addrModes[addr]
	if m == Reset {
		in.stats.RefusedDials++
		in.mu.Unlock()
		return nil, ErrRefused
	}
	in.mu.Unlock()
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return in.wrap(c, addr), nil
}

// SetAddrMode forces every connection to addr — current and future —
// into the mode. Reset crashes the endpoint: existing connections die and
// new dials are refused until the address is healed with
// SetAddrMode(addr, Healthy). Blackhole/Stall partition it.
func (in *Injector) SetAddrMode(addr string, m Mode) {
	in.mu.Lock()
	if m == Healthy {
		delete(in.addrModes, addr)
	} else {
		in.addrModes[addr] = m
	}
	conns := make([]*Conn, 0, len(in.conns))
	for c := range in.conns {
		if c.addr == addr {
			conns = append(conns, c)
		}
	}
	in.mu.Unlock()
	for _, c := range conns {
		c.SetMode(m)
	}
}

// WrapListener wraps a listener so every accepted connection is injected.
func (in *Injector) WrapListener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: in}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.WrapConn(c), nil
}

// SetMode forces every wrapped connection into the mode. Healing to
// Healthy wakes connections blocked by Blackhole or Stall; Reset closes
// them permanently.
func (in *Injector) SetMode(m Mode) {
	in.mu.Lock()
	conns := make([]*Conn, 0, len(in.conns))
	for c := range in.conns {
		conns = append(conns, c)
	}
	in.mu.Unlock()
	for _, c := range conns {
		c.SetMode(m)
	}
}

// SetPartitioned toggles a network partition: true blackholes every
// connection, false heals them.
func (in *Injector) SetPartitioned(p bool) {
	if p {
		in.SetMode(Blackhole)
	} else {
		in.SetMode(Healthy)
	}
}

// Stats snapshots the injector counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// decide draws the per-write fault decision deterministically. It returns
// the mode the write should transition the connection into (Healthy means
// no transition) and the injected delay for a healthy write of n bytes.
func (in *Injector) decide(n int) (Mode, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Writes++
	p := in.profile
	if p.DropRate > 0 && in.r.Bool(p.DropRate) {
		return Blackhole, 0
	}
	delay := p.AddedLatency
	if p.LatencyJitter > 0 {
		delay += time.Duration(in.r.Uniform(0, float64(p.LatencyJitter)))
	}
	if p.BandwidthKbps > 0 {
		tx := time.Duration(float64(n*8) / p.BandwidthKbps * float64(time.Millisecond))
		delay += tx
	}
	return Healthy, delay
}

func (in *Injector) addDelay(d time.Duration) {
	in.mu.Lock()
	in.stats.DelayedMs += d.Milliseconds()
	in.mu.Unlock()
}

func (in *Injector) noteMode(m Mode) {
	in.mu.Lock()
	switch m {
	case Reset:
		in.stats.Resets++
	case Blackhole:
		in.stats.Blackholes++
	}
	in.mu.Unlock()
}

func (in *Injector) noteDiscard() {
	in.mu.Lock()
	in.stats.DiscardedWrites++
	in.mu.Unlock()
}

func (in *Injector) forget(c *Conn) {
	in.mu.Lock()
	delete(in.conns, c)
	in.mu.Unlock()
}

// Conn is a fault-injected connection.
type Conn struct {
	inner net.Conn
	inj   *Injector
	addr  string // dial target / remote address; immutable after wrap

	mu        sync.Mutex
	mode      Mode
	healCh    chan struct{} // replaced and closed on every mode change
	closed    chan struct{}
	closeOnce sync.Once
	rdl, wdl  time.Time // deadlines mirrored for faultnet-level blocking
	nextFree  time.Time // bandwidth shaping: when the link is free again
}

var _ net.Conn = (*Conn)(nil)

// Mode returns the connection's current fault mode.
func (c *Conn) Mode() Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// SetMode transitions this connection alone and wakes anything blocked on
// it; use Injector.SetMode to transition every wrapped connection.
func (c *Conn) SetMode(m Mode) {
	c.mu.Lock()
	if c.mode == m {
		c.mu.Unlock()
		return
	}
	c.mode = m
	close(c.healCh)
	c.healCh = make(chan struct{})
	c.mu.Unlock()
	c.inj.noteMode(m)
	if m == Reset {
		c.inner.Close()
	}
}

// await blocks until the connection leaves blocking modes, the deadline
// passes, or the connection closes. It returns the mode to act on.
func (c *Conn) await(deadline time.Time) (Mode, error) {
	for {
		c.mu.Lock()
		m := c.mode
		heal := c.healCh
		c.mu.Unlock()
		if m == Healthy || m == Reset {
			return m, nil
		}
		var timer <-chan time.Time
		if !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return m, ErrTimeout
			}
			t := time.NewTimer(d)
			defer t.Stop()
			timer = t.C
		}
		select {
		case <-heal:
		case <-c.closed:
			return m, net.ErrClosed
		case <-timer:
			return m, ErrTimeout
		}
	}
}

// sleep waits for the injected delay, cut short by the deadline or close.
func (c *Conn) sleep(d time.Duration, deadline time.Time) error {
	if d <= 0 {
		return nil
	}
	c.inj.addDelay(d)
	if !deadline.IsZero() {
		if remain := time.Until(deadline); remain < d {
			if remain > 0 {
				t := time.NewTimer(remain)
				defer t.Stop()
				select {
				case <-t.C:
				case <-c.closed:
					return net.ErrClosed
				}
			}
			return ErrTimeout
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closed:
		return net.ErrClosed
	}
}

// Write applies the fault decision, shapes the traffic, and forwards.
func (c *Conn) Write(b []byte) (int, error) {
	next, delay := c.inj.decide(len(b))
	if next != Healthy {
		c.SetMode(next)
	}
	c.mu.Lock()
	mode := c.mode
	wdl := c.wdl
	c.mu.Unlock()
	switch mode {
	case Reset:
		return 0, ErrReset
	case Blackhole:
		c.inj.noteDiscard()
		return len(b), nil
	case Stall:
		m, err := c.await(wdl)
		if err != nil {
			return 0, err
		}
		if m == Reset {
			return 0, ErrReset
		}
	}
	// Bandwidth shaping serializes writes on the virtual link.
	c.mu.Lock()
	now := time.Now()
	start := now
	if c.nextFree.After(now) {
		start = c.nextFree
	}
	c.nextFree = start.Add(delay)
	wait := c.nextFree.Sub(now)
	c.mu.Unlock()
	if err := c.sleep(wait, wdl); err != nil {
		return 0, err
	}
	//lint:ignore conndeadline pass-through wrapper: deadline discipline is the caller's; SetWriteDeadline mirrors onto inner
	return c.inner.Write(b)
}

// Read stalls in Blackhole/Stall modes, otherwise forwards.
func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	mode := c.mode
	rdl := c.rdl
	c.mu.Unlock()
	if mode == Reset {
		return 0, ErrReset
	}
	if mode == Blackhole || mode == Stall {
		m, err := c.await(rdl)
		if err != nil {
			return 0, err
		}
		if m == Reset {
			return 0, ErrReset
		}
	}
	//lint:ignore conndeadline pass-through wrapper: deadline discipline is the caller's; SetReadDeadline mirrors onto inner
	return c.inner.Read(b)
}

// Close closes the connection and wakes all blocked operations.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		c.inj.forget(c)
		err = c.inner.Close()
	})
	return err
}

// LocalAddr returns the underlying local address.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr returns the underlying remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl, c.wdl = t, t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

// SetReadDeadline mirrors the deadline for faultnet-level blocking and
// forwards it to the underlying connection.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// SetWriteDeadline mirrors the deadline for faultnet-level blocking and
// forwards it to the underlying connection.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdl = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}
