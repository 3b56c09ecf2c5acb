package fognet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
	"cloudfog/internal/transport"
)

// DefaultPromoteAfter is how long the checkpoint/log stream may stay
// silent before the standby declares the primary dead and promotes
// itself. The per-tick delta log doubles as the liveness signal, so at
// the default 20 Hz tick this is forty missed entries.
const DefaultPromoteAfter = 2 * time.Second

// StandbyConfig parameterizes a warm standby.
type StandbyConfig struct {
	// Addr is the standby's listen address ("127.0.0.1:0" for an
	// ephemeral port). It is bound immediately and advertised to the
	// primary, which stamps it into every client's failover view; on
	// promotion the same listener starts serving, so clients resume on
	// exactly the address they were told before the crash.
	Addr string
	// PrimaryAddr is the primary cloud to follow.
	PrimaryAddr string
	// PromoteAfter is the silence threshold on the checkpoint/log stream
	// after which the standby promotes itself. Defaults to
	// DefaultPromoteAfter.
	PromoteAfter time.Duration
	// ReconnectBackoff is the first delay of the jittered redial loop
	// (doubling up to DefaultReconnectBackoffMax) while the primary is
	// unreachable but promotion is not yet due. Defaults to the fog
	// node's.
	ReconnectBackoff time.Duration
	// DialTimeout bounds the primary dial and hello. Defaults to
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// WriteTimeout bounds protocol writes. Defaults to
	// transport.DefaultWriteTimeout.
	WriteTimeout time.Duration
	// Seed drives the redial jitter deterministically.
	Seed uint64
	// Dial, when set, replaces net.DialTimeout — the faultnet injection
	// point for chaos tests.
	Dial DialFunc
	// Cloud is the configuration template for the promoted server (tick
	// and heartbeat intervals, selection policy, queue sizes). Its Addr,
	// Listener, Epoch, and Restore fields are overwritten by the
	// promotion itself.
	Cloud CloudConfig
}

// StandbyStats reports the follower's counters.
type StandbyStats struct {
	// Checkpoints / LogEntries count what the follower absorbed.
	Checkpoints int64
	LogEntries  int64
	// Epoch / LastTick describe the newest durable state held.
	Epoch    uint64
	LastTick uint64
	// Attaches counts successful registrations with the primary.
	Attaches int64
	// Promoted reports whether this standby took over.
	Promoted bool
}

// Standby is a warm standby for the cloud tier: it follows the primary's
// checkpoint stream and per-tick delta log, and when the primary goes
// silent past PromoteAfter it replays checkpoint+log into a bit-exact
// copy of the last durable world and starts a CloudServer of its own —
// epoch bumped, on the listener it advertised all along — so supernodes
// and players resume without a full rejoin (DESIGN.md §12).
type Standby struct {
	cfg StandbyConfig
	// tp is the transport seam the primary dial goes through.
	tp       transport.TCP
	listener net.Listener

	mu sync.Mutex
	// state is the last decoded checkpoint; entries the delta-log suffix
	// past it. Both guarded by mu. Entries older than a newly arrived
	// checkpoint are pruned — the checkpoint subsumes them.
	state   *checkpoint.State
	entries []checkpoint.LogEntry
	// lastMsg is when the stream last proved the primary alive; the
	// promotion timer measures silence from here. Guarded by mu.
	lastMsg time.Time
	// promoted is the post-failover CloudServer, nil until promotion.
	// Guarded by mu.
	promoted *CloudServer
	// stats stores the three counters Stats reports; Epoch, LastTick and
	// Promoted are derived at snapshot time.
	stats StandbyStats // guarded by mu

	jitter *rng.Rand // redial jitter; drawn from under mu (backoffWait)

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewStandby binds the standby's listener and starts following the
// primary. The listener accepts no connections until promotion — dials
// queue in the kernel backlog, which is exactly the grace a resuming
// client needs while the takeover completes.
func NewStandby(cfg StandbyConfig) (*Standby, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.PromoteAfter <= 0 {
		cfg.PromoteAfter = DefaultPromoteAfter
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = DefaultReconnectBackoff
	}
	tc := transport.Config{
		DialTimeout:  cfg.DialTimeout,
		WriteTimeout: cfg.WriteTimeout,
	}.WithDefaults()
	cfg.DialTimeout = tc.DialTimeout
	cfg.WriteTimeout = tc.WriteTimeout
	tp := transport.TCP{Config: tc, DialFunc: cfg.Dial}
	ln, err := tp.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("standby listen: %w", err)
	}
	sb := &Standby{
		cfg:      cfg,
		tp:       tp,
		listener: ln,
		jitter:   rng.New(cfg.Seed).SplitNamed("standby-redial"),
		stop:     make(chan struct{}),
	}
	sb.wg.Add(1)
	go sb.run()
	return sb, nil
}

// Addr returns the standby's advertised (and post-promotion serving)
// address.
func (sb *Standby) Addr() string { return sb.listener.Addr().String() }

// Promoted returns the post-failover CloudServer, or nil while the
// primary is still alive.
func (sb *Standby) Promoted() *CloudServer {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.promoted
}

// Stats snapshots the follower's counters.
func (sb *Standby) Stats() StandbyStats {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	st := sb.stats
	st.Promoted = sb.promoted != nil
	if sb.state != nil {
		st.Epoch = sb.state.Epoch
		st.LastTick = sb.state.World.Tick
		for i := range sb.entries {
			if e := &sb.entries[i]; e.Epoch == sb.state.Epoch && e.Tick > st.LastTick {
				st.LastTick = e.Tick
			}
		}
	}
	return st
}

// Close stops the follower; if the standby promoted, the recovered
// CloudServer (which owns the listener by then) is closed too.
func (sb *Standby) Close() error {
	select {
	case <-sb.stop:
		return nil
	default:
	}
	close(sb.stop)
	sb.wg.Wait()
	sb.mu.Lock()
	srv := sb.promoted
	sb.mu.Unlock()
	if srv != nil {
		return srv.Close() // closes the handed-over listener
	}
	return sb.listener.Close()
}

// run is the follower's lifecycle: follow the primary until the stream
// dies, then either promote (silence past PromoteAfter with a durable
// checkpoint in hand) or redial with jittered, capped backoff.
func (sb *Standby) run() {
	defer sb.wg.Done()
	backoff := sb.cfg.ReconnectBackoff
	for {
		bye := sb.follow()
		if sb.shouldPromote(bye) {
			sb.promote()
			return
		}
		if !backoffWait(sb.stop, &sb.mu, sb.jitter, &backoff, DefaultReconnectBackoffMax) {
			return
		}
	}
}

// follow attaches to the primary and absorbs its checkpoint/log stream
// until the connection breaks or goes silent past the promotion
// deadline. It reports whether the primary said a graceful goodbye
// (which authorizes immediate promotion — the final checkpoint is
// already in hand).
func (sb *Standby) follow() (bye bool) {
	conn, err := sb.tp.Dial(sb.cfg.PrimaryAddr)
	if err != nil {
		return false
	}
	defer conn.Close()
	// Unblock the read below when the standby closes mid-follow.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sb.stop:
			conn.Close()
		case <-done:
		}
	}()
	hello := protocol.StandbyHello{Addr: sb.listener.Addr().String()}
	if sendMsg(conn, sb.cfg.WriteTimeout, protocol.MsgStandbyHello, hello.Marshal()) != nil {
		return false
	}
	sb.mu.Lock()
	sb.stats.Attaches++
	// The attach itself proves the primary alive: the silence window
	// restarts now, giving the first checkpoint time to arrive.
	sb.lastMsg = time.Now()
	sb.mu.Unlock()

	fr := protocol.NewFrameReader(conn)
	for {
		// Every read is bounded by the promotion deadline: a primary
		// that stops producing log entries (one per tick, even idle
		// ones) is indistinguishable from a dead one.
		sb.mu.Lock()
		deadline := sb.lastMsg.Add(sb.cfg.PromoteAfter)
		sb.mu.Unlock()
		conn.SetReadDeadline(deadline)
		typ, payload, rerr := fr.Next()
		if rerr != nil {
			return false
		}
		switch typ {
		case protocol.MsgCheckpoint:
			st := new(checkpoint.State)
			if derr := checkpoint.DecodeState(payload, st); derr != nil {
				continue
			}
			sb.mu.Lock()
			sb.state = st
			// The checkpoint subsumes every logged tick it covers; keep
			// only the suffix past it (entries can arrive slightly ahead
			// of the checkpoint that was encoded before them).
			kept := sb.entries[:0]
			for i := range sb.entries {
				if e := sb.entries[i]; e.Epoch == st.Epoch && e.Tick > st.World.Tick {
					kept = append(kept, e)
				}
			}
			sb.entries = kept
			sb.stats.Checkpoints++
			sb.lastMsg = time.Now()
			sb.mu.Unlock()
		case protocol.MsgLogEntry:
			var e checkpoint.LogEntry
			if derr := checkpoint.DecodeLogEntry(payload, &e); derr != nil {
				continue
			}
			sb.mu.Lock()
			sb.entries = append(sb.entries, e)
			sb.stats.LogEntries++
			sb.lastMsg = time.Now()
			sb.mu.Unlock()
		case protocol.MsgBye:
			return true
		}
	}
}

// shouldPromote decides whether the follower's view authorizes a
// takeover: there must be a durable checkpoint, and either the primary
// said goodbye or its stream has been silent past PromoteAfter.
func (sb *Standby) shouldPromote(bye bool) bool {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.state == nil || sb.promoted != nil {
		return false
	}
	if bye {
		return true
	}
	return time.Since(sb.lastMsg) >= sb.cfg.PromoteAfter
}

// promote replays checkpoint+log into the exact world the primary last
// made durable and starts the recovered CloudServer on the advertised
// listener, one epoch up.
func (sb *Standby) promote() {
	sb.mu.Lock()
	st := sb.state
	entries := sb.entries
	sb.entries = nil
	sb.mu.Unlock()

	w := checkpoint.Replay(st, entries)
	w.SnapshotInto(&st.World)
	st.NextID = w.NextID()
	st.Canonicalize()

	cfg := sb.cfg.Cloud
	cfg.Addr = sb.listener.Addr().String()
	cfg.Listener = sb.listener
	cfg.Epoch = st.Epoch + 1
	cfg.Restore = st
	srv, err := NewCloudServer(cfg)
	if err != nil {
		// The listener is gone (closed underneath us); nothing to serve.
		return
	}
	sb.mu.Lock()
	sb.promoted = srv
	sb.mu.Unlock()
}
