package fognet

import (
	"net"
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// fanoutDeltas is the tick the cloud fans out: n entity deltas with a
// sprinkling of removals, like a busy world tick.
func fanoutDeltas(n int) []virtualworld.Delta {
	deltas := make([]virtualworld.Delta, n)
	for i := range deltas {
		deltas[i] = virtualworld.Delta{
			ID:      virtualworld.EntityID(i + 1),
			Removed: i%7 == 3,
			Entity: virtualworld.Entity{
				ID: virtualworld.EntityID(i + 1), Kind: virtualworld.KindNPC,
				Owner: -1, X: float64(i), Y: float64(2 * i), HP: 80,
			},
		}
	}
	return deltas
}

// fanoutWidth is the supernode count the tick fan-out benchmarks serve.
const fanoutWidth = 8

// fanoutFixture is the cloud's fan-out without the network or the tick
// clock: a CloudServer that was never started, holding real supernodeConns
// over discarding connections, captured in fanSNs the way tickOnce leaves
// them. tick runs CloudServer.fanOut and then link.flushQueued on every
// link — the code tickOnce and link.writer themselves run — so an
// allocation or an extra byte in either shows up in the tests built on it.
type fanoutFixture struct {
	s       *CloudServer
	standby *link
	geo     virtualworld.GridGeom
	deltas  []virtualworld.Delta
	pending []outMsg
}

// newFanoutFixture links one supernode per entry of sets; a nil entry is a
// legacy supernode on the full-world stream.
func newFanoutFixture(geo virtualworld.GridGeom, deltas []virtualworld.Delta, sets []*interestSet) *fanoutFixture {
	f := &fanoutFixture{
		s:      &CloudServer{epoch: 1},
		geo:    geo,
		deltas: deltas,
	}
	for _, is := range sets {
		f.s.fanSNs = append(f.s.fanSNs, &supernodeConn{link: f.link(), interest: is})
	}
	return f
}

func (f *fanoutFixture) link() *link {
	return newLink(discardNetConn{}, 2*DefaultSendQueueLen, time.Second, &f.s.links)
}

// tick fans one tick's deltas out and flushes every link, and returns the
// update-stream bytes that put on the wire, by the cloud's own count.
func (f *fanoutFixture) tick(tb testing.TB) int64 {
	before := f.s.links.updateBits.Load()
	f.s.fanOut(42, 1, f.geo, f.deltas, 0, f.standby, nil)
	f.flushAll(tb)
	if drops := f.s.links.queueDrops.Load(); drops != 0 {
		tb.Fatalf("%d messages dropped at the send queue", drops)
	}
	return (f.s.links.updateBits.Load() - before) / 8
}

// serve gives the fixture what tickOnce needs on top of fanOut: a world, and
// the registry it captures the links from.
func (f *fanoutFixture) serve(w *virtualworld.World) {
	f.s.cfg.CheckpointEvery = DefaultCheckpointEvery
	f.s.world = w
	f.s.supernodes = make(map[uint32]*supernodeConn)
	for i, sn := range f.s.fanSNs {
		sn.id = uint32(i + 1)
		f.s.supernodes[sn.id] = sn
	}
	f.s.standby = f.standby
}

// report delivers an interest report naming players from the fixture's
// supernode i, the way its read loop would.
func (f *fanoutFixture) report(tb testing.TB, i int, gen uint32, players ...int32) *supernodeConn {
	sn := f.s.fanSNs[i]
	f.s.applyInterest(sn, &protocol.InterestUpdate{Gen: gen, CellSize: f.s.world.Grid().Geom().CellSize, Players: players})
	if sn.interestGen != gen {
		tb.Fatal("interest report refused")
	}
	return sn
}

// inputTick queues one action the way a connection's read loop does, runs
// the early tick it asks for and flushes every link.
func (f *fanoutFixture) inputTick(tb testing.TB, a virtualworld.Action) {
	f.s.mu.Lock()
	queued := f.s.queueActionLocked(a)
	f.s.mu.Unlock()
	if !queued {
		tb.Fatal("action refused")
	}
	f.s.tickOnce(false)
	f.flushAll(tb)
}

func (f *fanoutFixture) flushAll(tb testing.TB) {
	for _, sn := range f.s.fanSNs {
		f.flush(tb, sn.link)
	}
	if f.standby != nil {
		f.flush(tb, f.standby)
	}
}

func (f *fanoutFixture) flush(tb testing.TB, l *link) {
	var err error
	if f.pending, err = l.flushQueued(f.pending); err != nil {
		tb.Fatal(err)
	}
	if n := l.inflight.Load(); n != 0 {
		tb.Fatalf("%d messages in flight after the flush", n)
	}
}

// newLegacyFanoutFixture is a busy tick — 64 deltas, some of them
// removals — going to fanoutWidth legacy supernodes and a standby.
func newLegacyFanoutFixture() *fanoutFixture {
	f := newFanoutFixture(virtualworld.GridGeom{}, fanoutDeltas(64), make([]*interestSet, fanoutWidth))
	f.standby = f.link()
	return f
}

// BenchmarkTickFanout measures the zero-allocation fan-out path end to
// end: one append-encode of the tick batch into a pooled
// reference-counted buffer and an enqueue per supernode, the standby's
// log entry, then each writer draining its queue into a pooled coalescing
// buffer flushed with a single write. Steady state: 0 allocs/op for the
// whole 8-wide fan-out.
func BenchmarkTickFanout(b *testing.B) {
	f := newLegacyFanoutFixture()
	f.tick(b) // warm pools and scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.tick(b)
	}
}

// discardNetConn is a session connection that accepts every write.
type discardNetConn struct{ net.Conn }

func (discardNetConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardNetConn) SetWriteDeadline(time.Time) error { return nil }

// streamFixture is a fog node's per-frame path without the network: a
// 2 000-entity replica behind the node's lock, one session's frameStream
// over a discarding connection, and a step that moves the avatar between
// frames so every frame has something to encode.
type streamFixture struct {
	fog    *FogNode
	fs     *frameStream
	avatar virtualworld.Entity
}

func newStreamFixture(level game.QualityLevel, sess *dgramSession) *streamFixture {
	w := virtualworld.New(1024, 1024)
	avatar := w.SpawnAvatar(1, 500, 500)
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		w.SpawnNPC(r.Uniform(0, 1024), r.Uniform(0, 1024))
	}
	fog := &FogNode{replica: virtualworld.NewReplica(1024, 1024)}
	fog.replica.Seed(w.Snapshot())
	fs := newFrameStream(discardNetConn{}, 1, level, time.Second, fog, sess, protocol.GetBuffer())
	fs.sess = sess
	return &streamFixture{fog: fog, fs: fs, avatar: avatar}
}

// frame applies one avatar move to the replica, as a tick's update batch
// would, and sends the next frame.
func (sf *streamFixture) frame(tb testing.TB) {
	sf.avatar.Version++
	sf.avatar.X = 500 + float64(sf.avatar.Version%8) // stays inside one grid cell
	sf.fog.mu.Lock()
	sf.fog.replica.Apply(uint64(sf.avatar.Version), []virtualworld.Delta{{ID: sf.avatar.ID, Entity: sf.avatar}})
	sf.fog.mu.Unlock()
	if !sf.fs.sendFrame(false) {
		tb.Fatal("frame not sent")
	}
}

// BenchmarkFrameStream measures one iteration of the fog tier's 30 fps
// streaming loop, frameStream.sendFrame as runVideoSession calls it: take
// the player's view of the replica under the node's lock, rasterize it
// into a reused framebuffer, compress into reused encoder scratch, frame
// the result into a pooled buffer, flush with a single write. Steady
// state: 0 allocs/op.
func BenchmarkFrameStream(b *testing.B) {
	sf := newStreamFixture(3, nil)
	defer protocol.PutBuffer(sf.fs.out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf.frame(b)
	}
}

// TestFrameStreamSteadyStateAllocs pins that property for both ways a
// frame leaves the fog: the session's TCP connection and a live datagram
// session.
func TestFrameStreamSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under -race; allocation counts only hold without it")
	}
	for name, sess := range map[string]*dgramSession{"tcp": nil, "dgram": benchDgramSession()} {
		sf := newStreamFixture(1, sess)
		for i := 0; i < 8; i++ { // warm-up: grow the view, encoder scratch and out buffer
			sf.frame(t)
		}
		if got := len(sf.fs.view.Entities); got < 10 || got > 500 {
			t.Fatalf("%s: view holds %d of 2001 entities; expected only the visible ones", name, got)
		}
		if n := testing.AllocsPerRun(64, func() { sf.frame(t) }); n != 0 {
			t.Errorf("%s: a steady-state frame allocates %.1f/op, want 0", name, n)
		}
		protocol.PutBuffer(sf.fs.out)
	}
}

// TestTickFanoutSteadyStateAllocs pins the fan-out benchmark's property as
// a regression test: after warm-up the shared encode, the standby's log
// entry, every enqueue and the coalesced drain allocate nothing.
func TestTickFanoutSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under -race; allocation counts only hold without it")
	}
	f := newLegacyFanoutFixture()
	for i := 0; i < 8; i++ { // warm-up: grow pools and scratch
		f.tick(t)
	}
	if n := testing.AllocsPerRun(64, func() { f.tick(t) }); n != 0 {
		t.Fatalf("tick fan-out allocates %.1f/op in steady state, want 0", n)
	}

	// The same from the intake on: an action is queued and the early tick
	// it asks for steps the world, captures the links from the registry and
	// fans out — tickOnce itself. World.Step returns a fresh delta slice by
	// contract (callers keep batches), and that is the one allocation: the
	// pending queue is reused from tick to tick. One more link is an AoI
	// one whose listed player walks every tick, inside one cell: its
	// interest set is recomputed in place each tick, and that costs nothing.
	f.s.fanSNs = append(f.s.fanSNs, &supernodeConn{link: f.link()})
	w := virtualworld.New(virtualworld.DefaultWidth, virtualworld.DefaultHeight)
	w.SpawnAvatar(1, 100, 100)
	f.serve(w)
	aoi := f.report(t, len(f.s.fanSNs)-1, 1, 1)
	step := 0
	inputTick := func() {
		step++
		f.inputTick(t, virtualworld.Action{Player: 1, Kind: virtualworld.ActMove, TargetX: 100 + float64(4*(step%2)), TargetY: 100})
	}
	for i := 0; i < 8; i++ {
		inputTick()
	}
	keyframes := f.s.stats.KeyframeCells
	if n := testing.AllocsPerRun(64, inputTick); n != 1 {
		t.Fatalf("an input tick allocates %.1f/op in steady state, want 1 (Step's result)", n)
	}
	if st := f.s.stats; st.InputTicks != st.Ticks || st.Resilience.Checkpoints != 0 {
		t.Fatalf("%d of %d ticks were input ticks, %d checkpoints; want all and none", st.InputTicks, st.Ticks, st.Resilience.Checkpoints)
	}
	if aoi.interest == nil || subscribed(aoi.interest) == 0 || keyframes == 0 || f.s.stats.KeyframeCells != keyframes {
		t.Fatalf("AoI link: set %+v, %d keyframe cells at its report and %d after, want a set and no new keyframes",
			aoi.interest, keyframes, f.s.stats.KeyframeCells)
	}
}
