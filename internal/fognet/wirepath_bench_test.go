package fognet

import (
	"io"
	"net"
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// fanoutBatch builds the tick payload the cloud fans out: n entity deltas
// with a sprinkling of removals, like a busy world tick.
func fanoutBatch(n int) protocol.UpdateBatch {
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
	return protocol.UpdateBatch{Tick: 42, Deltas: deltas}
}

// fanoutWidth is the supernode count both tick fan-out benchmarks serve.
const fanoutWidth = 8

// BenchmarkTickFanout measures the zero-allocation fan-out path end to
// end, exactly as tickOnce + snWriter run it: one append-encode of the
// tick batch into a pooled reference-counted buffer, an enqueue per
// supernode, then each writer draining its queue into a pooled coalescing
// buffer flushed with a single write. Steady state: 0 allocs/op for the
// whole 8-wide fan-out.
func BenchmarkTickFanout(b *testing.B) {
	batch := fanoutBatch(64)
	queues := make([]chan outMsg, fanoutWidth)
	for i := range queues {
		queues[i] = make(chan outMsg, DefaultSendQueueLen)
	}
	var pending []outMsg // reused drain list, as in snWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// tickOnce side: encode once, arm one reference per recipient.
		sp := newSharedPayload(len(queues))
		sp.buf.B = batch.AppendTo(sp.buf.B[:0])
		for _, q := range queues {
			q <- outMsg{typ: protocol.MsgUpdateBatch, payload: sp.buf.B, shared: sp}
		}
		// snWriter side: drain, coalesce into a pooled buffer, flush once.
		for _, q := range queues {
			pending = pending[:0]
		drain:
			for {
				select {
				case m := <-q:
					pending = append(pending, m)
				default:
					break drain
				}
			}
			buf := protocol.GetBuffer()
			for _, m := range pending {
				var err error
				if buf.B, err = protocol.AppendFrame(buf.B, m.typ, m.payload); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := io.Discard.Write(buf.B); err != nil {
				b.Fatal(err)
			}
			for j := range pending {
				pending[j].shared.release()
				pending[j] = outMsg{}
			}
			protocol.PutBuffer(buf)
		}
	}
}

// BenchmarkTickFanoutLegacy is the pre-change baseline kept for
// comparison: the old tick loop marshaled the batch once per supernode and
// framed it through WriteMessage, allocating payload + header every time.
// Compare against BenchmarkTickFanout in the same -benchmem run.
func BenchmarkTickFanoutLegacy(b *testing.B) {
	batch := fanoutBatch(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < fanoutWidth; j++ {
			if err := protocol.WriteMessage(io.Discard, protocol.MsgUpdateBatch, batch.Marshal()); err != nil {
				b.Fatal(err)
			}
		}
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
	avatar := *w.SpawnAvatar(1, 500, 500)
	r := rng.New(5)
	for i := 0; i < 2000; i++ {
		w.SpawnNPC(r.Uniform(0, 1024), r.Uniform(0, 1024))
	}
	fog := &FogNode{replica: virtualworld.NewReplica(1024, 1024)}
	fog.replica.Seed(w.Snapshot())
	fs := newFrameStream(discardNetConn{}, 1, level, time.Second, fog, fog, protocol.GetBuffer())
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
	if !sf.fs.sendFrame() {
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
// a regression test: after warm-up the shared-encode + coalesced-drain
// cycle allocates nothing.
func TestTickFanoutSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under -race; allocation counts only hold without it")
	}
	batch := fanoutBatch(64)
	q := make(chan outMsg, DefaultSendQueueLen)
	var pending []outMsg
	cycle := func() {
		sp := newSharedPayload(1)
		sp.buf.B = batch.AppendTo(sp.buf.B[:0])
		q <- outMsg{typ: protocol.MsgUpdateBatch, payload: sp.buf.B, shared: sp}
		pending = pending[:0]
	drain:
		for {
			select {
			case m := <-q:
				pending = append(pending, m)
			default:
				break drain
			}
		}
		buf := protocol.GetBuffer()
		for _, m := range pending {
			var err error
			if buf.B, err = protocol.AppendFrame(buf.B, m.typ, m.payload); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := io.Discard.Write(buf.B); err != nil {
			t.Fatal(err)
		}
		for j := range pending {
			pending[j].shared.release()
			pending[j] = outMsg{}
		}
		protocol.PutBuffer(buf)
	}
	for i := 0; i < 8; i++ { // warm-up: grow pools and scratch
		cycle()
	}
	if n := testing.AllocsPerRun(64, cycle); n != 0 {
		t.Fatalf("tick fan-out allocates %.1f/op in steady state, want 0", n)
	}
}
