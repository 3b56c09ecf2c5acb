package fognet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/adaptation"
	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
	"cloudfog/internal/transport"
	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// DefaultVideoReadTimeout is how long the player waits for the next video
// message before declaring the stream stalled and migrating (§3.2.2: the
// serving supernode may have silently vanished).
const DefaultVideoReadTimeout = 2 * time.Second

// migrateAttempts bounds how many times the failover ladder is retried
// (with jittered backoff) before the player gives up.
const migrateAttempts = 5

// DefaultQoEInterval is how often the player reports a healthy serving
// supernode to the cloud's reputation book.
const DefaultQoEInterval = 5 * time.Second

// rttEWMAAlpha is the weight of the newest probe round-trip in the
// player's per-address RTT estimate.
const rttEWMAAlpha = 0.5

// PlayerConfig parameterizes a PlayerClient.
type PlayerConfig struct {
	// PlayerID identifies the player.
	PlayerID int32
	// CloudAddr is the cloud server for admission and inputs.
	CloudAddr string
	// Game selects the title (Table 2 catalog); its default quality level
	// starts the session.
	Game game.Game
	// ActionInterval is how often the client sends an input. Defaults to
	// 100 ms.
	ActionInterval time.Duration
	// Adapt enables the receiver-driven rate adaptation of §3.3.
	Adapt bool
	// Seed drives the client's synthetic input generator and its
	// migration backoff jitter.
	Seed uint64
	// DialTimeout bounds every dial and attach handshake. Defaults to
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// VideoReadTimeout is the stall detector: the longest silence
	// tolerated on the video stream before failing over. Defaults to
	// DefaultVideoReadTimeout.
	VideoReadTimeout time.Duration
	// WriteTimeout bounds protocol writes. Defaults to
	// transport.DefaultWriteTimeout.
	WriteTimeout time.Duration
	// Dial, when set, replaces net.DialTimeout — the faultnet injection
	// point for chaos tests.
	Dial DialFunc
	// Datagram takes the unreliable UDP video path that a supernode's
	// attach reply grants: once the hello lands, frames arrive as
	// datagrams with stale-frame drop while the TCP session carries
	// control alone (rate changes, rerouted actions, bye). TCP remains the
	// fallback — no grant or a failed hello handshake leaves the session
	// streaming exactly as before. The cloud's own stream grants none.
	Datagram bool
	// WrapDatagram, when set, wraps the player's UDP socket — the
	// faultnet injection point for lossy-path chaos tests.
	WrapDatagram transport.WrapDatagramFunc
	// Policy ranks the failover ladder locally (§3.2 via
	// internal/selection), using the cloud's per-candidate scores plus
	// the player's own measured RTTs. Defaults to
	// selection.PolicyReputation.
	Policy selection.Policy
	// MaxCandidateRTTMs drops candidates whose measured round-trip
	// exceeds this bound (the L_max delay filter of §3.2, expressed as an
	// RTT). Zero disables the filter; unmeasured candidates always pass.
	MaxCandidateRTTMs float64
	// QoEInterval is how often a healthy serving supernode is reported to
	// the cloud. Zero means DefaultQoEInterval; negative disables
	// reporting entirely.
	QoEInterval time.Duration
}

// maxPendingActions bounds the player's local outage buffer: inputs
// that could reach neither the cloud nor the serving supernode wait
// here for the control-plane resume.
const maxPendingActions = 256

// PlayerClient is a thin client: it sends inputs to the cloud and receives
// a video stream from a supernode.
type PlayerClient struct {
	cfg PlayerConfig
	// tp is the transport seam: every dial, handshake deadline, and
	// write bound the client applies flows from its one policy.
	tp transport.TCP

	mu    sync.Mutex
	video net.Conn
	// stats is the storage of every counter Stats reports (StallMs is
	// computed at snapshot time). Its Level, LastTick and Epoch are live
	// state too: the attach level, the resume tick and the authority
	// epoch of the cloud currently spoken to.
	stats PlayerStats // guarded by mu
	// Stall accounting, in monotonic time: lastFrameAt is when the last
	// frame was delivered (stream attach before the first), stalled marks
	// a detected outage that no frame has ended yet, and stallNs sums the
	// outages that did end — each from its last delivered frame to the
	// first frame decoded on the new stream.
	lastFrameAt time.Time
	stalled     bool
	stallNs     int64

	// videoDgram is the live UDP socket of the datagram video path (nil
	// while streaming over TCP) so Close can unblock its reader.
	videoDgram transport.DatagramConn // guarded by mu

	// The failover view of the control plane (next to stats.Epoch): the
	// control address currently spoken to and the advertised standby. A
	// broken control link resumes ctrlAddr → standbyAddr with the
	// epoch-stamped MsgResume handshake.
	ctrlAddr    string // guarded by mu
	standbyAddr string // guarded by mu
	// pendingActs buffers inputs that could reach neither the cloud nor
	// the serving supernode, flushed (or discarded, on an epoch
	// regression) after the control-plane resume. Guarded by mu.
	pendingActs []virtualworld.Action

	// candidates is the cloud-provided ladder — addresses plus load,
	// capacity, and reputation score — kept fresh by MsgCandidateUpdate
	// pushes, for the migration of §3.2.2: when the serving supernode
	// fails, the player walks the ladder candidates → cloud fallback
	// before giving up. rttMs overlays the player's own probe
	// measurements (EWMA per address), which outrank the cloud's view of
	// network distance when ranking.
	candidates  []protocol.CandidateInfo // guarded by mu
	rttMs       map[string]float64       // guarded by mu
	cloudAddr   string                   // the cloud's own stream endpoint (ladder tail)
	servingAddr string                   // the address currently streaming video

	jitter *rng.Rand // migration backoff jitter; drawn from under mu (backoffWait)
	rank   *rng.Rand // ladder tie-break shuffle; guarded by mu

	// cloudMu serializes writes on the cloud control connection, which
	// carries QoE reports alongside the action stream — and guards the
	// connection itself, which a control-plane resume swaps.
	cloudMu sync.Mutex
	cloud   net.Conn // guarded by cloudMu

	// videoWMu serializes writes on the video connection: rate changes
	// from the video loop and rerouted actions from the action loop.
	videoWMu sync.Mutex

	ctrl *adaptation.Controller

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewPlayerClient joins the game: it registers with the cloud, probes the
// candidate supernodes in order, and attaches to the first with capacity
// (the sequential capacity probing of §3.2.2), falling back to the cloud's
// own stream when no supernode accepts. If the serving supernode later
// fails — connection error or a stream silent past VideoReadTimeout — the
// client walks the failover ladder automatically.
func NewPlayerClient(cfg PlayerConfig) (*PlayerClient, error) {
	if cfg.ActionInterval <= 0 {
		cfg.ActionInterval = 100 * time.Millisecond
	}
	if cfg.Game.ID == 0 {
		cfg.Game = game.Catalog()[2]
	}
	tc := transport.Config{
		DialTimeout:  cfg.DialTimeout,
		WriteTimeout: cfg.WriteTimeout,
	}.WithDefaults()
	cfg.DialTimeout = tc.DialTimeout
	cfg.WriteTimeout = tc.WriteTimeout
	if cfg.VideoReadTimeout <= 0 {
		cfg.VideoReadTimeout = DefaultVideoReadTimeout
	}
	if cfg.Policy == 0 {
		cfg.Policy = selection.PolicyReputation
	}
	if cfg.QoEInterval == 0 {
		cfg.QoEInterval = DefaultQoEInterval
	}
	r := rng.New(cfg.Seed + uint64(cfg.PlayerID))
	p := &PlayerClient{
		cfg:    cfg,
		tp:     transport.TCP{Config: tc, DialFunc: cfg.Dial},
		stats:  PlayerStats{Level: cfg.Game.DefaultQuality},
		rttMs:  make(map[string]float64),
		stop:   make(chan struct{}),
		jitter: r.SplitNamed("migrate-jitter"),
		rank:   r.SplitNamed("ladder-rank"),
	}
	cloud, cloudFR, reply, err := p.dialCtrl(cfg.CloudAddr, &protocol.PlayerJoin{
		PlayerID: cfg.PlayerID,
		GameID:   uint8(cfg.Game.ID),
		SpawnX:   r.Uniform(50, 400),
		SpawnY:   r.Uniform(50, 400),
	})
	if err != nil {
		return nil, err
	}
	p.cloudMu.Lock()
	p.cloud = cloud
	p.cloudMu.Unlock()
	p.mu.Lock()
	p.adoptCtrlLocked(cfg.CloudAddr, reply)
	p.mu.Unlock()
	video, videoFR, grant, err := p.attachToAny(p.ladder())
	if err != nil {
		cloud.Close()
		return nil, err
	}
	p.video = video
	if cfg.Adapt {
		p.ctrl = adaptation.NewController(adaptation.Config{
			Rho:      cfg.Game.ToleranceDegree,
			MaxLevel: cfg.Game.DefaultQuality,
			Debounce: 2,
		}, cfg.Game.DefaultQuality)
	}

	p.wg.Add(3)
	go p.actionLoop(r)
	go p.cloudLoop(cloudFR)
	go p.videoLoop(videoFR, grant)
	return p, nil
}

// ladder returns the current failover ladder: candidate supernodes ranked
// by the shared §3.2 pipeline, the cloud's own stream endpoint last (§3.2:
// players that cannot find nearby supernodes connect directly to the
// cloud).
func (p *PlayerClient) ladder() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return buildLadder(p.candidates, p.rttMs, p.cfg.Policy,
		p.cfg.MaxCandidateRTTMs, p.cloudAddr, p.rank)
}

// buildLadder ranks the cloud-provided candidates into a dial order. The
// player's own measured RTT for an address overrides the cloud's estimate
// (the cloud cannot ping on the player's behalf), maxRTTMs applies the
// L_max delay filter of §3.2, and the ranking policy orders the rest by
// availability and score — replacing the list-position order players used
// before. Pure so it can be tested and benchmarked without a live client.
func buildLadder(cands []protocol.CandidateInfo, rtts map[string]float64,
	policy selection.Policy, maxRTTMs float64, cloudAddr string, r *rng.Rand) []string {
	sel := make([]selection.Candidate, len(cands))
	for i, c := range cands {
		rtt := c.MeasuredRTTMs
		if m, ok := rtts[c.Addr]; ok {
			rtt = m
		}
		sel[i] = selection.Candidate{
			ID:       i,
			Addr:     c.Addr,
			Load:     int(c.Load),
			Capacity: int(c.Capacity),
			RTTMs:    rtt,
			Score:    c.Score,
		}
	}
	sel = selection.FilterByDelay(sel, maxRTTMs/2)
	ranker := selection.PolicyRanker{Policy: policy} // nil Scorer: cloud scores stand
	ranker.Rank(sel, 0, r)
	out := make([]string, 0, len(sel)+1)
	for _, c := range sel {
		out = append(out, c.Addr)
	}
	if cloudAddr != "" {
		out = append(out, cloudAddr)
	}
	return out
}

// noteRTT folds a fresh probe round-trip into the per-address EWMA.
func (p *PlayerClient) noteRTT(addr string, ms float64) {
	p.mu.Lock()
	if old, ok := p.rttMs[addr]; ok {
		ms = rttEWMAAlpha*ms + (1-rttEWMAAlpha)*old
	}
	p.rttMs[addr] = ms
	p.mu.Unlock()
}

// attachToAny walks the ladder and attaches to the first address that
// accepts (the sequential capacity probing of §3.2.2).
func (p *PlayerClient) attachToAny(addrs []string) (net.Conn, *protocol.FrameReader, protocol.DatagramGrant, error) {
	for _, addr := range addrs {
		if conn, fr, grant, err := p.attachTo(addr); err == nil {
			return conn, fr, grant, nil
		}
	}
	return nil, nil, protocol.DatagramGrant{}, fmt.Errorf("fognet: no supernode accepted player %d (candidates: %d)",
		p.cfg.PlayerID, len(addrs))
}

// attachTo dials one rung of the ladder and runs the asking side of
// serveAttach on it, returning the session's datagram grant with the
// connection. Each step is a deadlined exchange, so a hung supernode costs
// at most the dial timeout plus two handshake timeouts.
func (p *PlayerClient) attachTo(addr string) (net.Conn, *protocol.FrameReader, protocol.DatagramGrant, error) {
	conn, err := p.tp.Dial(addr)
	if err != nil {
		return nil, nil, protocol.DatagramGrant{}, err
	}
	fr := protocol.NewFrameReader(conn)
	// Probe for capacity first; the probe round-trip doubles as the
	// player's RTT measurement for ladder ranking.
	probeSent := time.Now()
	body, err := exchange(conn, fr, p.tp.Config.HandshakeTimeout, protocol.MsgProbe, nil, protocol.MsgProbeReply)
	if err == nil {
		p.noteRTT(addr, float64(time.Since(probeSent).Microseconds())/1000)
		var probe protocol.ProbeReply
		if probe, err = protocol.UnmarshalProbeReply(body); err == nil && probe.Available <= 0 {
			err = fmt.Errorf("%s has no free slot", addr)
		}
	}
	if err == nil {
		p.mu.Lock()
		level := p.stats.Level
		p.mu.Unlock()
		attach := protocol.PlayerAttach{PlayerID: p.cfg.PlayerID, QualityLevel: uint8(level)}
		body, err = exchange(conn, fr, p.tp.Config.HandshakeTimeout, protocol.MsgPlayerAttach, attach.Marshal(), protocol.MsgAttachReply)
	}
	var ack protocol.AttachReply
	if err == nil {
		if ack, err = protocol.UnmarshalAttachReply(body); err == nil && !ack.OK {
			err = fmt.Errorf("%s refused the attach: %s", addr, ack.Reason)
		}
	}
	if err != nil {
		conn.Close()
		return nil, nil, protocol.DatagramGrant{}, err
	}
	p.mu.Lock()
	if addr == p.cloudAddr {
		p.stats.FallbackTransitions++
	}
	p.servingAddr = addr
	p.mu.Unlock()
	return conn, fr, ack.Datagram, nil
}

// Close leaves the game and waits for the client's goroutines.
func (p *PlayerClient) Close() error {
	select {
	case <-p.stop:
		return nil
	default:
	}
	close(p.stop)
	// Best-effort goodbyes; the connections close regardless.
	p.mu.Lock()
	video := p.video
	dgram := p.videoDgram
	p.mu.Unlock()
	if dgram != nil {
		dgram.Close() // unblock the datagram receive loop
	}
	p.cloudMu.Lock()
	cloud := p.cloud
	_ = sendMsg(cloud, p.cfg.WriteTimeout, protocol.MsgBye, nil)
	p.cloudMu.Unlock()
	if video != nil {
		p.videoWMu.Lock()
		_ = sendMsg(video, p.cfg.WriteTimeout, protocol.MsgBye, nil)
		p.videoWMu.Unlock()
		video.Close()
	}
	cloud.Close()
	p.wg.Wait()
	return nil
}

// PlayerStats reports client-side counters.
type PlayerStats struct {
	// Frames is the number of decoded video frames.
	Frames int64
	// VideoBits is the received video volume.
	VideoBits int64
	// DecodeErrors counts undecodable frames.
	DecodeErrors int64
	// LastTick is the newest world tick seen in the video.
	LastTick uint64
	// Level is the current quality level.
	Level game.QualityLevel
	// RateSwitches counts receiver-driven level changes.
	RateSwitches int
	// Migrations counts reconnections to a new supernode after failures.
	Migrations int
	// FallbackTransitions counts attaches that landed on the cloud's own
	// stream — the expensive last rung of the ladder.
	FallbackTransitions int
	// StallMs is the cumulative time the video stream was down across
	// failures: each stall runs from the last frame delivered before the
	// failure to the first frame decoded on the new stream (to now, for a
	// stall still open), measured in monotonic nanoseconds and rounded up.
	StallMs int64
	// CandidateUpdates counts failover-ladder refreshes received from
	// the cloud.
	CandidateUpdates int64
	// QoEReports counts ratings this player sent to the cloud's
	// reputation book.
	QoEReports int64
	// Epoch is the authority epoch of the cloud currently spoken to; a
	// jump means the session survived a failover.
	Epoch uint64
	// CtrlResumes counts control-plane resumes (MsgResume re-admissions
	// after the cloud link broke).
	CtrlResumes int64
	// BufferedActions / ReroutedActions / DroppedActions / DiscardedActions
	// account the outage-window input path: held locally, rerouted via
	// the serving supernode, dropped at the bounded buffer, or discarded
	// on resume because the restored world never saw their ticks.
	BufferedActions  int64
	ReroutedActions  int64
	DroppedActions   int64
	DiscardedActions int64
	// DatagramSessions counts streams that went over to UDP (hello
	// acknowledged by a first frame); DatagramFrames is the subset of
	// Frames that arrived as datagrams.
	DatagramSessions int64
	DatagramFrames   int64
	// DatagramStale / DatagramDuplicates / DatagramLost /
	// DatagramReordered account the unreliable path's discipline: late
	// arrivals dropped at the receiver (never delivered out of order),
	// duplicates dropped, gaps never filled, and gaps that were filled
	// late (reclassified from lost, still dropped).
	DatagramStale      int64
	DatagramDuplicates int64
	DatagramLost       int64
	DatagramReordered  int64
	// DatagramFallbacks counts supernode streams that stayed on TCP
	// although datagrams were asked for: attach replies without a grant
	// and hello handshakes that never completed.
	DatagramFallbacks int64
	// LossEWMA is the smoothed datagram loss fraction feeding the QoE
	// rating (zero while streaming over TCP).
	LossEWMA float64
}

// Stats snapshots the counters.
func (p *PlayerClient) Stats() PlayerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	stallNs := p.stallNs
	if p.stalled {
		stallNs += int64(time.Since(p.lastFrameAt))
	}
	st := p.stats
	st.StallMs = (stallNs + int64(time.Millisecond) - 1) / int64(time.Millisecond)
	return st
}

// reportQoE sends one rating for addr over the control connection,
// best-effort: a broken cloud link surfaces in the loops that own it.
func (p *PlayerClient) reportQoE(addr string, rating float64, stalled, fallback bool) {
	rep := protocol.QoEReport{
		PlayerID: p.cfg.PlayerID,
		Addr:     addr,
		Rating:   rating,
		Stalled:  stalled,
		Fallback: fallback,
	}
	var buf []byte
	p.cloudMu.Lock()
	err := sendInto(p.cloud, p.cfg.WriteTimeout, &buf, protocol.MsgQoEReport, &rep)
	p.cloudMu.Unlock()
	if err == nil {
		p.mu.Lock()
		p.stats.QoEReports++
		p.mu.Unlock()
	}
}

// actionLoop streams synthetic inputs to the cloud (the player wanders
// between random waypoints) and, on a slower ticker, reports the serving
// supernode healthy — the positive half of the reputation feedback loop;
// migrate sends the negative half.
func (p *PlayerClient) actionLoop(r *rng.Rand) {
	defer p.wg.Done()
	var actBuf []byte
	ticker := time.NewTicker(p.cfg.ActionInterval)
	defer ticker.Stop()
	var qoeC <-chan time.Time
	if p.cfg.QoEInterval > 0 {
		qoeTicker := time.NewTicker(p.cfg.QoEInterval)
		defer qoeTicker.Stop()
		qoeC = qoeTicker.C
	}
	tx, ty := r.Uniform(0, 400), r.Uniform(0, 400)
	for {
		select {
		case <-p.stop:
			return
		case <-qoeC:
			p.mu.Lock()
			addr := p.servingAddr
			isCloud := addr == p.cloudAddr
			// Datagram loss degrades the reported experience: a supernode
			// behind a lossy path earns less reputation than a clean one.
			rating := 1 - p.stats.LossEWMA
			p.mu.Unlock()
			if rating < 0 {
				rating = 0
			}
			if addr != "" && !isCloud {
				p.reportQoE(addr, rating, false, false)
			}
		case <-ticker.C:
			if r.Bool(0.1) {
				tx, ty = r.Uniform(0, 400), r.Uniform(0, 400)
			}
			msg := protocol.ActionMsg{Action: virtualworld.Action{
				Player: int(p.cfg.PlayerID), Kind: virtualworld.ActMove,
				TargetX: tx, TargetY: ty,
			}}
			// Framed into the loop-owned scratch buffer: the 10 Hz input
			// stream reuses it, and a refused write reroutes its bytes.
			p.cloudMu.Lock()
			err := sendInto(p.cloud, p.cfg.WriteTimeout, &actBuf, protocol.MsgAction, &msg)
			p.cloudMu.Unlock()
			if err != nil {
				// Cloud control link down: reroute the input through the
				// serving supernode (which forwards or buffers it) or
				// hold it locally until the control-plane resume. The
				// loop keeps running — the link is cloudLoop's to heal.
				p.rerouteAction(actBuf, msg.Action)
			}
		}
	}
}

// cloudLoop receives the cloud's pushes on the control connection —
// candidate-ladder refreshes and standby-address updates — and owns
// healing that connection: when it breaks (crash or graceful Bye), the
// loop resumes the session on the failover ladder and flushes any
// inputs buffered through the outage.
func (p *PlayerClient) cloudLoop(fr *protocol.FrameReader) {
	defer p.wg.Done()
	for {
	readLoop:
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				break readLoop // cloud gone or Close()
			}
			switch typ {
			case protocol.MsgCandidateUpdate:
				upd, uerr := protocol.UnmarshalCandidateUpdate(payload)
				if uerr != nil {
					continue
				}
				p.mu.Lock()
				p.candidates = upd.Candidates
				if upd.CloudStreamAddr != "" {
					p.cloudAddr = upd.CloudStreamAddr
				}
				p.standbyAddr = upd.StandbyAddr
				p.stats.CandidateUpdates++
				p.mu.Unlock()
			case protocol.MsgBye:
				// Graceful cloud shutdown: head straight into the resume
				// ladder; the standby is about to take over.
				break readLoop
			}
		}
		var ok bool
		if fr, ok = p.resumeCtrl(); !ok {
			return
		}
	}
}

// dialCtrl is the client's one way onto the cloud's control plane: dial
// addr and be admitted, as a new player when join is set (MsgPlayerJoin)
// and otherwise by resuming the session with the epoch-stamped MsgResume.
// Either answer carries the epoch, the failover ladder, the cloud's own
// stream endpoint and the standby's address.
func (p *PlayerClient) dialCtrl(addr string, join *protocol.PlayerJoin) (net.Conn, *protocol.FrameReader, protocol.ResumeReply, error) {
	typ, want := protocol.MsgResume, protocol.MsgResumeReply
	var payload []byte
	if join != nil {
		typ, want, payload = protocol.MsgPlayerJoin, protocol.MsgJoinReply, join.Marshal()
	} else {
		p.mu.Lock()
		req := protocol.Resume{
			Kind:     protocol.ResumePlayer,
			PlayerID: p.cfg.PlayerID,
			Epoch:    p.stats.Epoch,
			Tick:     p.stats.LastTick,
		}
		p.mu.Unlock()
		payload = req.Marshal()
	}
	return dialAdmission(p.tp, addr, typ, payload, want)
}

// adoptCtrlLocked rebinds the failover view to the cloud at addr that
// just admitted the player. Caller holds mu.
func (p *PlayerClient) adoptCtrlLocked(addr string, reply protocol.ResumeReply) {
	p.stats.Epoch = reply.Epoch
	p.ctrlAddr = addr
	p.standbyAddr = reply.StandbyAddr
	if len(reply.Candidates) > 0 {
		p.candidates = reply.Candidates
	}
	if reply.CloudStreamAddr != "" {
		p.cloudAddr = reply.CloudStreamAddr
	}
}

// resumeCtrl re-establishes the control session after the cloud link
// broke, walking the ladder ctrlAddr → standbyAddr with jittered, capped
// backoff. On success the avatar continues where the recovered authority
// has it — no rejoin, no respawn — and locally buffered inputs are
// flushed (or discarded when the reply says the client's history ran
// ahead of the restored world). It returns the new connection's frame
// reader, or false when the client is closing or every attempt was
// refused.
func (p *PlayerClient) resumeCtrl() (*protocol.FrameReader, bool) {
	backoff := DefaultMigrateBackoff
	for attempt := 0; attempt < migrateAttempts; attempt++ {
		select {
		case <-p.stop:
			return nil, false
		default:
		}
		p.mu.Lock()
		ladder := failoverLadder(p.ctrlAddr, p.standbyAddr)
		p.mu.Unlock()
		for _, addr := range ladder {
			conn, fr, reply, err := p.dialCtrl(addr, nil)
			if err != nil {
				continue
			}
			p.cloudMu.Lock()
			old := p.cloud
			p.cloud = conn
			p.cloudMu.Unlock()
			old.Close()
			p.mu.Lock()
			p.adoptCtrlLocked(addr, reply)
			p.stats.CtrlResumes++
			var flush []virtualworld.Action
			if reply.Discard {
				// The inputs were aimed at ticks the crashed primary
				// never durably committed; replaying them against the
				// rewound world would double-apply intent.
				p.stats.DiscardedActions += int64(len(p.pendingActs))
			} else {
				flush = append(flush, p.pendingActs...)
			}
			p.pendingActs = p.pendingActs[:0]
			p.mu.Unlock()
			p.flushPending(conn, flush)
			return fr, true
		}
		if !backoffWait(p.stop, &p.mu, p.jitter, &backoff, DefaultMigrateBackoffMax) {
			return nil, false
		}
	}
	return nil, false
}

// flushPending replays outage-buffered inputs on the resumed control
// connection, oldest first.
func (p *PlayerClient) flushPending(conn net.Conn, acts []virtualworld.Action) {
	var buf []byte
	for i := range acts {
		msg := protocol.ActionMsg{Action: acts[i]}
		p.cloudMu.Lock()
		werr := sendInto(conn, p.cfg.WriteTimeout, &buf, protocol.MsgAction, &msg)
		p.cloudMu.Unlock()
		if werr != nil {
			return // the read side will observe the dead conn
		}
	}
}

// rerouteAction handles an input the cloud write refused: first try the
// serving supernode over the video session (frame is the already-framed
// MsgAction; the fog forwards or buffers it), then fall back to the
// local pending buffer, bounded so an extended outage cannot grow
// memory without limit.
func (p *PlayerClient) rerouteAction(frame []byte, a virtualworld.Action) {
	p.mu.Lock()
	video := p.video
	isCloudStream := p.servingAddr == p.cloudAddr
	p.mu.Unlock()
	// A cloud-fallback video session dies with the cloud; don't bother.
	if video != nil && !isCloudStream {
		p.videoWMu.Lock()
		err := writeWithin(video, p.cfg.WriteTimeout, frame)
		p.videoWMu.Unlock()
		if err == nil {
			p.mu.Lock()
			p.stats.ReroutedActions++
			p.mu.Unlock()
			return
		}
	}
	p.mu.Lock()
	if len(p.pendingActs) >= maxPendingActions {
		p.stats.DroppedActions++
	} else {
		p.pendingActs = append(p.pendingActs, a)
		p.stats.BufferedActions++
	}
	p.mu.Unlock()
}

// videoRecvState is the per-stream decode and adaptation state shared by
// the TCP receive loop and the datagram receive loop: the decoder (and
// its reference frame), the reused EncodedFrame and output frame, the
// rate-change scratch buffer, and the adaptation window accumulators.
// One stream, one state — the datagram path continues the TCP path's
// window rather than starting its own.
type videoRecvState struct {
	dec         videocodec.Decoder
	ef          videocodec.EncodedFrame
	frame       render.Frame
	rcBuf       []byte
	start       time.Time
	windowBits  int64
	windowStart time.Time
	// The datagram gap rule (recvDatagramFrame): needKey drops P-frames
	// undecoded until an I-frame arrives, dgSeq is the sequence of the
	// last delivered datagram, keyAsked when a keyframe was last asked
	// for. needKey is only ever set inside a datagram session.
	needKey  bool
	dgSeq    uint64
	keyAsked time.Time
}

// decodeFrame decodes one received frame payload (the wire form of
// MsgVideoFrame, which is also the datagram payload) into the shared
// state and accounts it. viaDgram marks frames that arrived on the
// unreliable path. While st.needKey is set, a P-frame is dropped undecoded
// (there is no reference to add it to) and the next frame decoded clears
// the state. The decoder's verdict on a decoded frame is returned.
func (p *PlayerClient) decodeFrame(st *videoRecvState, payload []byte, viaDgram bool) error {
	if uerr := videocodec.UnmarshalFrameInto(payload, &st.ef); uerr != nil {
		p.mu.Lock()
		p.stats.DecodeErrors++
		p.mu.Unlock()
		return uerr
	}
	st.windowBits += int64(st.ef.SizeBits())
	if st.needKey && st.ef.Type != videocodec.IFrame {
		return nil
	}
	derr := st.dec.DecodeInto(&st.ef, &st.frame)
	p.mu.Lock()
	if derr != nil {
		p.stats.DecodeErrors++
	} else {
		st.needKey = false
		now := time.Now()
		if p.stalled {
			p.stallNs += int64(now.Sub(p.lastFrameAt))
			p.stalled = false
		}
		p.lastFrameAt = now
		p.stats.Frames++
		p.stats.VideoBits += int64(st.ef.SizeBits())
		if viaDgram {
			p.stats.DatagramFrames++
		}
		if st.frame.Tick > p.stats.LastTick {
			p.stats.LastTick = st.frame.Tick
		}
	}
	p.mu.Unlock()
	return derr
}

// adaptWindow is the adaptation observation window; keyframe requests are
// paced by it too.
const adaptWindow = 250 * time.Millisecond

// maybeAdapt runs the receiver-driven adaptation on ~250 ms windows: the
// observed delivery rate feeds the buffer model, and level switches go
// back to the supernode as RateChange on the session's TCP connection
// (reliable even when frames ride UDP). lossFn, when non-nil, reports
// the window's datagram loss fraction — it both biases the controller
// (§3.3 under loss: no up-switches, down-pressure past the threshold)
// and feeds the smoothed loss the QoE reports carry. On the TCP path
// lossFn is nil: the transport hides loss as latency, so the controller
// sees none and the EWMA decays.
func (p *PlayerClient) maybeAdapt(st *videoRecvState, conn net.Conn, lossFn func() float64) {
	if p.ctrl == nil {
		return
	}
	win := time.Since(st.windowStart)
	if win < adaptWindow {
		return
	}
	loss := 0.0
	if lossFn != nil {
		loss = lossFn()
	}
	p.ctrl.NoteLoss(loss)
	p.mu.Lock()
	p.stats.LossEWMA = 0.5*loss + 0.5*p.stats.LossEWMA
	p.mu.Unlock()
	kbps := float64(st.windowBits) / win.Seconds() / 1000
	now := time.Since(st.start).Seconds()
	decision := p.ctrl.Observe(now, kbps)
	st.windowBits, st.windowStart = 0, time.Now()
	if decision == adaptation.Hold {
		return
	}
	if p.sendRateChange(st, conn, p.ctrl.Level()) != nil {
		return // the next read will fail over
	}
	p.mu.Lock()
	p.stats.Level = p.ctrl.Level()
	p.stats.RateSwitches++
	p.mu.Unlock()
}

// sendRateChange writes one MsgRateChange on the session's TCP connection,
// whose writes the video loop shares with the action loop's reroutes.
func (p *PlayerClient) sendRateChange(st *videoRecvState, conn net.Conn, level game.QualityLevel) error {
	rc := protocol.RateChange{QualityLevel: uint8(level)}
	p.videoWMu.Lock()
	defer p.videoWMu.Unlock()
	return sendInto(conn, p.cfg.WriteTimeout, &st.rcBuf, protocol.MsgRateChange, &rc)
}

// videoLoop receives and decodes the video stream, and drives the
// receiver-driven adaptation: the observed delivery rate feeds the buffer
// model, and level switches go back to the supernode as RateChange. Every
// stream, the first and each one a migration opens, picks its transport
// once: with cfg.Datagram set, a supernode's stream goes to the UDP
// receive loop with the grant its attach reply carried, and stays on TCP
// only when there was no grant or the hello never landed. Every read
// carries the stall-detector deadline; a silent or broken stream, on
// either transport, triggers the failover ladder.
//
// The 30 fps receive path is the thin client's hot loop, so it reuses
// everything: the frame reader's connection buffer, the EncodedFrame
// whose Data aliases that buffer (consumed before the next read), the
// decoder's internal reference frame, and the output frame whose pixels
// alias decoder memory. Steady state allocates nothing per frame.
func (p *PlayerClient) videoLoop(fr *protocol.FrameReader, grant protocol.DatagramGrant) {
	defer p.wg.Done()
	st := videoRecvState{start: time.Now()}
	st.windowStart = st.start
	p.mu.Lock()
	conn := p.video
	p.lastFrameAt = st.start
	p.mu.Unlock()
	for {
		p.mu.Lock()
		onCloud := p.servingAddr == p.cloudAddr
		p.mu.Unlock()
		overTCP := true
		if p.cfg.Datagram && !onCloud {
			switch p.runDatagramVideo(conn, grant, &st) {
			case dgClosed:
				return
			case dgStall:
				overTCP = false
			case dgNoUpgrade:
				// No grant, or the hello never registered: the fog streams
				// over this TCP connection.
				p.mu.Lock()
				p.stats.DatagramFallbacks++
				p.mu.Unlock()
			}
		}
		for overTCP {
			conn.SetReadDeadline(time.Now().Add(p.cfg.VideoReadTimeout))
			typ, payload, err := fr.Next()
			if err != nil {
				break
			}
			if typ == protocol.MsgVideoFrame {
				p.decodeFrame(&st, payload, false)
				p.maybeAdapt(&st, conn, nil)
			}
		}
		// The serving supernode failed, left, or went silent: migrate down
		// the ladder (§3.2.2). No game state transfers — the cloud holds it
		// all — so the stream resumes with a fresh decoder.
		var ok bool
		if conn, fr, grant, ok = p.migrate(&st.dec); !ok {
			return
		}
	}
}

// migrate walks the failover ladder after the serving connection failed,
// retrying with jittered backoff, and returns the new connection, its
// frame reader and its datagram grant. It reports false when the client is
// closing or the ladder stays dry. It opens a stall, which the first frame
// decoded afterwards closes. The failed supernode is reported to the
// cloud's reputation book (rating 0, stalled), and again with the fallback
// flag if the migration ends on the cloud's own stream — every escape to
// the expensive rung demotes whoever caused it.
func (p *PlayerClient) migrate(dec *videocodec.Decoder) (net.Conn, *protocol.FrameReader, protocol.DatagramGrant, bool) {
	p.mu.Lock()
	p.stalled = true
	failed := p.servingAddr
	if failed == p.cloudAddr {
		failed = "" // the cloud rates supernodes, not itself
	}
	p.mu.Unlock()
	if failed != "" {
		p.reportQoE(failed, 0, true, false)
	}
	backoff := DefaultMigrateBackoff
	for attempt := 0; attempt < migrateAttempts; attempt++ {
		select {
		case <-p.stop:
			return nil, nil, protocol.DatagramGrant{}, false
		default:
		}
		conn, fr, grant, err := p.attachToAny(p.ladder())
		if err == nil {
			p.mu.Lock()
			old := p.video
			p.video = conn
			p.stats.Migrations++
			landedOnCloud := p.servingAddr == p.cloudAddr
			p.mu.Unlock()
			if landedOnCloud && failed != "" {
				p.reportQoE(failed, 0, false, true)
			}
			if old != nil {
				old.Close()
			}
			*dec = videocodec.Decoder{} // the new stream starts with an I-frame
			return conn, fr, grant, true
		}
		// The ladder may be mid-refresh (the cloud broadcasts after an
		// eviction); back off with deterministic jitter and retry.
		if !backoffWait(p.stop, &p.mu, p.jitter, &backoff, DefaultMigrateBackoffMax) {
			return nil, nil, protocol.DatagramGrant{}, false
		}
	}
	return nil, nil, protocol.DatagramGrant{}, false
}
