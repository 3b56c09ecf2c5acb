package fognet

import (
	"net"
	"testing"
	"time"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// slowTick is a metronome slow enough to tell the two tick clocks apart on
// a loaded box: the idle period is 600 ms, the least gap between two ticks
// slowGap = 60 ms.
const (
	slowTick = 600 * time.Millisecond
	slowGap  = slowTick / tickGapDivisor
)

// startPacedCloud starts a cloud for the tick-pacing tests: no NPCs, and a
// heartbeat the protocol-level peers below never have to answer.
func startPacedCloud(t *testing.T, tick time.Duration) *CloudServer {
	t.Helper()
	cloud, err := NewCloudServer(CloudConfig{TickInterval: tick, HeartbeatInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	return cloud
}

// batchObs is one full-world update batch as a supernode received it.
type batchObs struct {
	tick   uint64
	deltas []virtualworld.Delta
	at     time.Time
}

// startSink registers a supernode at the protocol level and returns every
// update batch it receives, in order, stamped on arrival.
func startSink(t *testing.T, cloud *CloudServer) <-chan batchObs {
	t.Helper()
	conn, err := net.DialTimeout("tcp", cloud.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := protocol.SupernodeHello{Name: "sink", Capacity: 1, StreamAddr: "127.0.0.1:1"}
	if err := protocol.WriteMessage(conn, protocol.MsgSupernodeHello, hello.Marshal()); err != nil {
		t.Fatal(err)
	}
	fr := protocol.NewFrameReader(conn)
	if typ, _, err := fr.Next(); err != nil || typ != protocol.MsgSupernodeWelcome {
		t.Fatalf("welcome: type %d, err %v", typ, err)
	}
	// Sized for every batch a test can produce: the reader never blocks.
	out := make(chan batchObs, 4096)
	go func() {
		defer close(out)
		var batch protocol.UpdateBatch
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				return // closed by the cleanup
			}
			if typ != protocol.MsgUpdateBatch {
				continue
			}
			at := time.Now()
			if err := protocol.DecodeUpdateBatch(payload, &batch); err != nil {
				t.Errorf("update batch does not decode: %v", err)
				return
			}
			out <- batchObs{tick: batch.Tick, deltas: append([]virtualworld.Delta(nil), batch.Deltas...), at: at}
		}
	}()
	return out
}

func nextBatch(t *testing.T, sink <-chan batchObs, within time.Duration) batchObs {
	t.Helper()
	select {
	case b, ok := <-sink:
		if !ok {
			t.Fatal("sink closed")
		}
		return b
	case <-time.After(within):
		t.Fatalf("no update batch within %v", within)
	}
	return batchObs{}
}

// rawPlayer is a player's control connection at the protocol level.
type rawPlayer struct {
	id   int
	conn net.Conn
}

func joinRaw(t *testing.T, cloud *CloudServer, id int, x, y float64) (*rawPlayer, protocol.JoinReply) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", cloud.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	join := protocol.PlayerJoin{PlayerID: int32(id), GameID: 1, SpawnX: x, SpawnY: y}
	if err := protocol.WriteMessage(conn, protocol.MsgPlayerJoin, join.Marshal()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := protocol.ReadMessage(conn)
	if err != nil || typ != protocol.MsgJoinReply {
		t.Fatalf("join reply: type %d, err %v", typ, err)
	}
	reply, err := protocol.UnmarshalJoinReply(payload)
	if err != nil || !reply.OK {
		t.Fatalf("join refused: %+v, err %v", reply, err)
	}
	return &rawPlayer{id: id, conn: conn}, reply
}

// emote sends one input: the avatar takes the pose tag, so the action's
// tick shows as exactly one delta for this player's avatar.
func (p *rawPlayer) emote(tag uint8) error {
	am := protocol.ActionMsg{Action: virtualworld.Action{Player: p.id, Kind: virtualworld.ActEmote, StateTag: tag}}
	return protocol.WriteMessage(p.conn, protocol.MsgAction, am.AppendTo(nil))
}

// streamInputs sends an input every period until the returned stop is
// called; stop waits for the sender and reports how many inputs it sent.
// Every input carries another pose tag, so each one changes the avatar.
func (p *rawPlayer) streamInputs(every time.Duration) (stop func() int64) {
	quit, done := make(chan struct{}), make(chan struct{})
	var sent int64
	go func() {
		defer close(done)
		pace := time.NewTicker(every)
		defer pace.Stop()
		for tag := uint8(2); ; tag++ {
			select {
			case <-quit:
				return
			case <-pace.C:
				if p.emote(tag) != nil {
					return
				}
				sent++
			}
		}
	}()
	return func() int64 { close(quit); <-done; return sent }
}

// quiet waits until the tick that produced last is at least one gap old, so
// that the next input finds the rate limit open.
func quiet(t *testing.T, last batchObs) {
	t.Helper()
	waitFor(t, 2*slowTick, "a gap without a tick", func() bool { return time.Since(last.at) >= slowGap+slowGap/2 })
}

// metronomeTicks counts the ticks the metronome ran.
func metronomeTicks(st CloudStats) int64 { return st.Ticks - st.InputTicks }

// joinAll admits n players and returns them with the metronome tick that
// followed their spawns, so the caller starts a full period from the next
// one. Joins are inputs: the spawns ride early ticks. The metronome tick
// carried nothing and reached no sink, so it is returned as its number and
// a moment no earlier than it ran.
func joinAll(t *testing.T, cloud *CloudServer, sink <-chan batchObs, n int) ([]*rawPlayer, batchObs) {
	t.Helper()
	players := make([]*rawPlayer, n)
	for i := range players {
		players[i], _ = joinRaw(t, cloud, 100+i, float64(100+50*i), 100)
	}
	for spawns := 0; spawns < n; {
		spawns += len(nextBatch(t, sink, 3*slowTick).deltas)
	}
	joined := cloud.Stats()
	if joined.InputTicks == 0 {
		t.Fatalf("%d joins ran no input tick", n)
	}
	var st CloudStats
	waitFor(t, 3*slowTick, "a metronome tick after the spawns", func() bool {
		st = cloud.Stats()
		return metronomeTicks(st) > metronomeTicks(joined)
	})
	return players, batchObs{tick: st.Tick, at: time.Now()}
}

// (1) An input into a quiet cloud is applied at once, in the very next
// tick number; an input right behind a tick is applied one gap after that
// tick — not sooner, and not at the metronome.
func TestInputTickAppliesActionAfterWindow(t *testing.T) {
	cloud := startPacedCloud(t, slowTick)
	sink := startSink(t, cloud)
	players, spawn := joinAll(t, cloud, sink, 1)

	quiet(t, spawn)
	base := cloud.Stats()
	sent := time.Now()
	if err := players[0].emote(7); err != nil {
		t.Fatal(err)
	}
	first := nextBatch(t, sink, 3*slowTick)
	if first.tick != spawn.tick+1 {
		t.Errorf("action applied in tick %d, want %d", first.tick, spawn.tick+1)
	}
	if len(first.deltas) != 1 || first.deltas[0].Entity.State != 7 {
		t.Errorf("batch %+v does not carry the emote", first.deltas)
	}
	if wait := first.at.Sub(sent); wait >= slowGap {
		t.Errorf("action into a quiet cloud waited %v for its tick, want well under the %v gap", wait, slowGap)
	}

	if err := players[0].emote(8); err != nil {
		t.Fatal(err)
	}
	second := nextBatch(t, sink, 3*slowTick)
	if second.tick != first.tick+1 || len(second.deltas) != 1 || second.deltas[0].Entity.State != 8 {
		t.Errorf("tick %d carries %+v, want the second emote in tick %d", second.tick, second.deltas, first.tick+1)
	}
	if gap := second.at.Sub(first.at); gap < slowGap*8/10 || gap >= slowTick/2 {
		t.Errorf("action behind a tick was applied %v after it, want about the %v gap (metronome: %v)", gap, slowGap, slowTick)
	}
	if st := cloud.Stats(); st.InputTicks-base.InputTicks != 2 || st.Actions != 2 {
		t.Errorf("InputTicks = %d, Actions = %d, want 2 and 2", st.InputTicks-base.InputTicks, st.Actions)
	}
}

// (2) Everything that arrives inside one gap after a tick rides one tick.
func TestInputTickCoalescesWindow(t *testing.T) {
	cloud := startPacedCloud(t, slowTick)
	sink := startSink(t, cloud)
	players, spawn := joinAll(t, cloud, sink, 5)

	// A tick that has only just run: the one a lone input gets at once.
	quiet(t, spawn)
	base := cloud.Stats()
	if err := players[0].emote(9); err != nil {
		t.Fatal(err)
	}
	primer := nextBatch(t, sink, 3*slowTick)
	for i, p := range players {
		if err := p.emote(uint8(10 + i)); err != nil {
			t.Fatal(err)
		}
	}
	b := nextBatch(t, sink, 3*slowTick)
	if b.tick != primer.tick+1 || len(b.deltas) != len(players) {
		t.Fatalf("tick %d carries %d deltas, want tick %d with %d", b.tick, len(b.deltas), primer.tick+1, len(players))
	}
	if st := cloud.Stats(); st.InputTicks-base.InputTicks != 2 || st.Actions != int64(1+len(players)) {
		t.Errorf("InputTicks = %d, Actions = %d, want 2 and %d", st.InputTicks-base.InputTicks, st.Actions, 1+len(players))
	}
}

// (3) A metronome tick that fires while the early timer is armed takes the
// pending inputs and disarms it: no empty tick follows.
func TestInputTickMetronomePreempts(t *testing.T) {
	cloud := startPacedCloud(t, slowTick)
	sink := startSink(t, cloud)
	players, last := joinAll(t, cloud, sink, 1)

	// The timer is armed only for the gap behind an early tick, so that tick
	// has to run less than a gap ahead of the metronome. The test aims for
	// the middle of that stretch and, when it can tell from the counters
	// that it missed, aims again one period later.
	for attempt := 1; ; attempt++ {
		before := cloud.Stats()
		waitFor(t, 3*slowTick, "a metronome tick", func() bool {
			st := cloud.Stats()
			return metronomeTicks(st) > metronomeTicks(before)
		})
		metronome := time.Now()
		before = cloud.Stats()
		waitFor(t, 2*slowTick, "half a gap before the next metronome tick", func() bool {
			return time.Since(metronome) >= slowTick-slowGap/2
		})
		// The first input ticks at once; the second, sent when that tick
		// has run, arms the timer for a moment past the metronome's.
		for tag := uint8(2 * attempt); tag <= uint8(2*attempt+1); tag++ {
			if err := players[0].emote(tag); err != nil {
				t.Fatal(err)
			}
			for last.deltas = nil; len(last.deltas) != 1 || last.deltas[0].Entity.State != tag; {
				last = nextBatch(t, sink, 3*slowTick)
			}
		}
		st := cloud.Stats()
		if st.InputTicks-before.InputTicks == 1 && st.Ticks-before.Ticks == 2 {
			t.Logf("attempt %d: one early tick, then the metronome took the second input", attempt)
			break
		}
		if attempt == 8 {
			t.Fatalf("no attempt put an input between an early tick and the metronome (last: %d ticks, %d early)",
				st.Ticks-before.Ticks, st.InputTicks-before.InputTicks)
		}
	}
	st := cloud.Stats()
	waitFor(t, 3*slowTick, "the tick after", func() bool { return cloud.Stats().Ticks > st.Ticks })
	if gap := time.Since(last.at); gap < slowTick/2 {
		t.Errorf("a tick ran %v after the metronome's: the disarmed timer fired", gap)
	}
	if after := cloud.Stats(); after.InputTicks != st.InputTicks || after.Ticks != st.Ticks+1 {
		t.Errorf("after the pre-empted timer: %d ticks (%d early), want 1 (0 early)", after.Ticks-st.Ticks, after.InputTicks-st.InputTicks)
	}
}

// (4) An idle cloud runs the metronome and nothing else, one log entry a
// tick.
func TestInputTickIdleCloudRunsMetronomeOnly(t *testing.T) {
	const tick = 50 * time.Millisecond
	cloud := startPacedCloud(t, tick)
	sb, err := NewStandby(StandbyConfig{PrimaryAddr: cloud.Addr(), PromoteAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	// A moment at which the standby has every entry the cloud produced.
	inSync := func() (CloudStats, StandbyStats, bool) {
		c1, s, c2 := cloud.Stats(), sb.Stats(), cloud.Stats()
		return c1, s, s.LogEntries > 0 && c1.Tick == c2.Tick && s.LastTick == c1.Tick
	}
	var c0 CloudStats
	var s0 StandbyStats
	waitFor(t, 5*time.Second, "standby following", func() (ok bool) { c0, s0, ok = inSync(); return ok })
	start := time.Now()
	waitFor(t, 5*time.Second, "ten idle ticks", func() bool { return cloud.Stats().Ticks >= c0.Ticks+10 })
	if elapsed := time.Since(start); elapsed < 9*tick {
		t.Errorf("ten idle ticks took %v, want about %v", elapsed, 10*tick)
	}
	var c1 CloudStats
	var s1 StandbyStats
	waitFor(t, 5*time.Second, "standby caught up", func() (ok bool) { c1, s1, ok = inSync(); return ok })
	if c1.InputTicks != 0 {
		t.Errorf("idle cloud ran %d input ticks", c1.InputTicks)
	}
	if ticks, entries := c1.Ticks-c0.Ticks, s1.LogEntries-s0.LogEntries; ticks != entries {
		t.Errorf("%d ticks produced %d log entries", ticks, entries)
	}
}

// (5) Early and metronome ticks interleave into one strictly increasing
// numbering, at a supernode and in a player's video.
func TestInputTickOrderAcrossBothClocks(t *testing.T) {
	cloud := startPacedCloud(t, 30*time.Millisecond)
	sink := startSink(t, cloud)
	fog := startFog(t, cloud, "fog-order", 2)
	player, _ := joinRaw(t, cloud, 5, 300, 300)
	video, fr, _ := attachRaw(t, fog.StreamAddr(), 5)

	stopInput := player.streamInputs(3 * time.Millisecond)
	frameTicks := make(chan uint64, 4096) // every frame of the run: the reader never blocks
	go func() {
		defer close(frameTicks)
		var ef videocodec.EncodedFrame
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				return
			}
			if typ == protocol.MsgVideoFrame && videocodec.UnmarshalFrameInto(payload, &ef) == nil {
				frameTicks <- ef.Tick
			}
		}
	}()
	waitFor(t, 10*time.Second, "ten ticks of each clock", func() bool {
		st := cloud.Stats()
		return st.InputTicks >= 10 && st.Ticks-st.InputTicks >= 10
	})
	stopInput()
	video.Close() // ends the frame reader, which closes frameTicks

	var last uint64
	n := 0
	for len(sink) > 0 {
		b := <-sink
		if b.tick <= last {
			t.Fatalf("supernode saw tick %d after %d", b.tick, last)
		}
		last, n = b.tick, n+1
	}
	if n < 10 { // every input tick carries a delta; a metronome tick right behind one may not
		t.Errorf("supernode saw %d batches, want at least 10", n)
	}
	last, n = 0, 0
	for tick := range frameTicks {
		if tick < last {
			t.Fatalf("player saw tick %d after %d", tick, last)
		}
		if tick > last {
			n++
		}
		last = tick
	}
	if n < 5 {
		t.Errorf("player's video advanced through %d ticks, want at least 5", n)
	}
}

// (6) The input clock is a rate limit: however fast one player acts, early
// ticks come no closer than a gap apart, every action is applied, and the
// ticks are numbered without a hole.
func TestInputTickRateIsBounded(t *testing.T) {
	cloud := startPacedCloud(t, slowTick)
	sink := startSink(t, cloud)
	players, spawn := joinAll(t, cloud, sink, 1)

	quiet(t, spawn)
	before := cloud.Stats()
	start := time.Now()
	stop := players[0].streamInputs(time.Millisecond)
	waitFor(t, 10*time.Second, "twenty gaps of input", func() bool { return time.Since(start) >= 20*slowGap })
	sent := stop()
	waitFor(t, 3*slowTick, "every action applied", func() bool { return cloud.Stats().Actions-before.Actions == sent })
	elapsed := time.Since(start)
	after := cloud.Stats()
	early := after.InputTicks - before.InputTicks

	// One tick at once and one per whole gap since.
	if most := int64(elapsed/slowGap) + 1; early > most || early < 10 {
		t.Errorf("%d early ticks in %v of %d inputs, want 10 to %d (one per %v gap)", early, elapsed, sent, most, slowGap)
	}
	if ticks, numbers := after.Ticks-before.Ticks, int64(after.Tick-before.Tick); ticks != numbers {
		t.Errorf("%d ticks advanced the tick number by %d", ticks, numbers)
	}
	// Every early tick carries the avatar's change; a metronome tick right
	// behind one may have nothing to send.
	waitFor(t, 3*slowTick, "the early ticks' batches", func() bool { return int64(len(sink)) >= early })
	lastTick, batches, deltas := spawn.tick, int64(0), 0
	for len(sink) > 0 {
		b := <-sink
		if b.tick <= lastTick {
			t.Fatalf("supernode saw tick %d after %d", b.tick, lastTick)
		}
		lastTick, batches, deltas = b.tick, batches+1, deltas+len(b.deltas)
	}
	if batches < early || int64(deltas) != batches {
		t.Errorf("supernode saw %d batches of %d deltas for %d early ticks, want one single-delta batch per busy tick", batches, deltas, early)
	}
}

// TestTickWireCost pins what the rate limit's gap was chosen against: one
// action's tick, through tickOnce, fanOut and the link's flush, costs a
// supernode under fifty bytes with the frame header in, on the full-world
// stream and on an AoI one, and a tick nothing happened in costs it none.
func TestTickWireCost(t *testing.T) {
	for _, tc := range []struct {
		name string
		aoi  bool
		most int64
	}{{"full-world", false, 48}, {"aoi", true, 52}} {
		w := virtualworld.New(virtualworld.DefaultWidth, virtualworld.DefaultHeight)
		avatar := w.SpawnAvatar(1, 100, 100)
		geo := w.Grid().Geom()
		var watching *interestSet
		if tc.aoi {
			watching = newInterestSet(geo.NumCells())
			watching.add(geo.CellOf(avatar.X, avatar.Y))
		}
		f := newFanoutFixture(geo, nil, []*interestSet{watching})
		f.serve(w)
		sent := func() int64 { return f.s.links.updateBits.Load() / 8 }
		f.inputTick(t, virtualworld.Action{Player: 1, Kind: virtualworld.ActEmote, StateTag: 3})
		got := sent()
		t.Logf("%s: %d bytes for a one-action tick", tc.name, got)
		if got == 0 || got > tc.most {
			t.Errorf("%s: a one-action tick puts %d bytes on the link, want 1 to %d", tc.name, got, tc.most)
		}
		f.s.tickOnce(true)
		f.flushAll(t)
		if idle := sent() - got; idle != 0 {
			t.Errorf("%s: an idle metronome tick puts %d bytes on the link, want none", tc.name, idle)
		}
	}
}

// Checkpoints ride the metronome: under a steady input stream the cadence
// is CheckpointEvery × TickInterval of wall time, early ticks only add log
// entries, and the standby's replay of checkpoint + log — both kinds of
// tick in it — lands on the primary's exact state.
func TestInputTickCheckpointsRideMetronome(t *testing.T) {
	const every = 4
	cloud, err := NewCloudServer(CloudConfig{
		TickInterval: 30 * time.Millisecond, CheckpointEvery: every, NPCs: 4,
		HeartbeatInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sb, err := NewStandby(StandbyConfig{PrimaryAddr: cloud.Addr(), PromoteAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	waitFor(t, 5*time.Second, "attach checkpoint", func() bool { return sb.Stats().Checkpoints >= 1 })
	player, _ := joinRaw(t, cloud, 1, 200, 200)
	defer player.streamInputs(3 * time.Millisecond)()

	const periods = 20
	c0 := cloud.Stats()
	var c1 CloudStats
	waitFor(t, 10*time.Second, "twenty metronome periods", func() bool {
		c1 = cloud.Stats()
		return metronomeTicks(c1) >= metronomeTicks(c0)+periods
	})
	if early := c1.InputTicks - c0.InputTicks; early < periods {
		t.Errorf("%d input ticks in %d busy periods: the run did not mix both clocks", early, periods)
	}
	want := (metronomeTicks(c1) - metronomeTicks(c0)) / every
	if got := c1.Resilience.Checkpoints - c0.Resilience.Checkpoints; got < want-1 || got > want+1 {
		t.Errorf("%d checkpoints over %d metronome and %d input ticks, want %d±1",
			got, metronomeTicks(c1)-metronomeTicks(c0), c1.InputTicks-c0.InputTicks, want)
	}

	// Freeze the primary between two ticks (its writers keep flushing what
	// is queued), fingerprint it, and replay the standby's durable view up
	// to the same tick. A freeze that lands exactly on a checkpoint tick
	// leaves nothing to replay; take another.
	for attempt := 0; ; attempt++ {
		var (
			tick     uint64
			wantHash uint64
			st       checkpoint.State
			entries  []checkpoint.LogEntry
			derr     error
		)
		func() {
			cloud.mu.Lock()
			defer cloud.mu.Unlock()
			tick = cloud.world.Tick()
			sp := cloud.encodeCheckpointLocked(1)
			wantHash = checkpoint.Hash(sp.buf.B)
			sp.release()
			waitFor(t, 5*time.Second, "standby at the frozen tick", func() bool { return sb.Stats().LastTick == tick })
			sb.mu.Lock()
			defer sb.mu.Unlock()
			derr = checkpoint.DecodeState(sb.state.AppendTo(nil), &st)
			entries = make([]checkpoint.LogEntry, len(sb.entries))
			for i := range sb.entries {
				if derr == nil {
					derr = checkpoint.DecodeLogEntry(sb.entries[i].AppendTo(nil), &entries[i])
				}
			}
		}()
		if derr != nil {
			t.Fatalf("clone the standby's view: %v", derr)
		}
		replayed := 0
		for i, e := range entries {
			if e.Tick > st.World.Tick {
				replayed++
			}
			if i > 0 && e.Tick != entries[i-1].Tick+1 {
				t.Fatalf("log entry for tick %d follows tick %d", e.Tick, entries[i-1].Tick)
			}
		}
		if replayed == 0 {
			if attempt == 10 {
				t.Fatal("every freeze landed on a checkpoint tick")
			}
			waitFor(t, 5*time.Second, "the next tick", func() bool { return cloud.Stats().Tick > tick })
			continue
		}
		w := checkpoint.Replay(&st, entries)
		w.SnapshotInto(&st.World)
		st.NextID = w.NextID()
		st.Canonicalize()
		if st.World.Tick != tick {
			t.Fatalf("replay ends at tick %d, primary frozen at %d", st.World.Tick, tick)
		}
		if got := checkpoint.Hash(st.AppendTo(nil)); got != wantHash {
			t.Fatalf("replayed state hash %#x != primary %#x at tick %d (%d entries replayed)", got, wantHash, tick, replayed)
		}
		return
	}
}

// attachRaw opens a video session at the protocol level and returns it with
// the moment the attach reply arrived.
func attachRaw(t *testing.T, streamAddr string, id int32) (net.Conn, *protocol.FrameReader, time.Time) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", streamAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	at := protocol.PlayerAttach{PlayerID: id, QualityLevel: 3}
	if err := protocol.WriteMessage(conn, protocol.MsgPlayerAttach, at.Marshal()); err != nil {
		t.Fatal(err)
	}
	fr := protocol.NewFrameReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := fr.Next()
	if err != nil || typ != protocol.MsgAttachReply {
		t.Fatalf("attach reply: type %d, err %v", typ, err)
	}
	if ack, aerr := protocol.UnmarshalAttachReply(payload); aerr != nil || !ack.OK {
		t.Fatalf("attach refused: %+v, err %v", ack, aerr)
	}
	return conn, fr, time.Now()
}

// slowFrames is a frame clock slow enough that "at attach" and "one period
// later" cannot be confused.
const slowFrames = 400 * time.Millisecond

func startSlowFog(t *testing.T, cloud *CloudServer, name string) *FogNode {
	t.Helper()
	fog, err := NewFogNode(FogConfig{Name: name, CloudAddr: cloud.Addr(), Capacity: 4, FrameInterval: slowFrames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fog.Close() })
	return fog
}

// A player that migrates lands on a supernode whose replica already holds
// its avatar: the first frame goes out with the attach, not one frame
// period later.
func TestFirstFrameAtAttachAfterMigration(t *testing.T) {
	cloud := startCloud(t)
	fogs := []*FogNode{startSlowFog(t, cloud, "fog-a"), startSlowFog(t, cloud, "fog-b")}
	player, err := NewPlayerClient(PlayerConfig{PlayerID: 21, CloudAddr: cloud.Addr(), ActionInterval: 10 * time.Millisecond, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "first frame", func() bool { return player.Stats().Frames >= 1 })
	serving := fogs[0]
	if fogs[1].Stats().Attached == 1 {
		serving = fogs[1]
	}
	// The old supernode's next frame is most of a period away, so every
	// frame past this count is the new supernode's — whose first one can
	// beat Close returning.
	before := player.Stats().Frames
	serving.Close()
	waitFor(t, 5*time.Second, "migration", func() bool { return player.Stats().Migrations >= 1 })
	attached := time.Now()
	waitFor(t, 5*time.Second, "first frame from the new supernode", func() bool { return player.Stats().Frames > before })
	if wait := time.Since(attached); wait >= slowFrames/2 {
		t.Errorf("first frame %v after the attach, want well under the %v frame period", wait, slowFrames)
	}
	if st := player.Stats(); st.DecodeErrors != 0 || cloud.Stats().FallbackPlayers != 0 {
		t.Errorf("%d decode errors, %d fallback sessions", st.DecodeErrors, cloud.Stats().FallbackPlayers)
	}
}

// A fresh joiner's spawn is an input: it rides an early tick, and the delta
// that brings the avatar to the supernode wakes the session. The first frame
// leaves with the attach or with the spawn, whichever is later — not one
// frame period on — and shows the joiner's avatar in the middle.
func TestFirstFrameAtAttachFreshJoinAtSpawn(t *testing.T) {
	// 100 ms ticks: without the join waking the tick, the spawn would be on
	// its way for much longer than the attach takes.
	cloud := startPacedCloud(t, 100*time.Millisecond)
	fog := startSlowFog(t, cloud, "fog-a")
	_, reply := joinRaw(t, cloud, 9, 150, 850) // far from the world's centre
	_, fr, attached := attachRaw(t, fog.StreamAddr(), 9)

	var ef videocodec.EncodedFrame
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("video: %v", err)
		}
		if typ != protocol.MsgVideoFrame {
			continue
		}
		if err := videocodec.UnmarshalFrameInto(payload, &ef); err != nil {
			t.Fatal(err)
		}
		break
	}
	if wait := time.Since(attached); wait >= slowFrames/2 {
		t.Errorf("first frame %v after the attach, want well under the %v frame period", wait, slowFrames)
	}
	if ef.Tick <= reply.Tick {
		t.Errorf("first frame shows tick %d, the spawn rode tick %d", ef.Tick, reply.Tick+1)
	}
	var dec videocodec.Decoder
	var frame render.Frame
	if err := dec.DecodeInto(&ef, &frame); err != nil {
		t.Fatal(err)
	}
	// The avatar is the only entity: a bright disc on a dark background,
	// dead centre when the view is centred on it.
	if luma := frame.At(frame.Width/2, frame.Height/2); luma < 160 {
		t.Errorf("centre pixel luma %d: the frame is not centred on the joiner's avatar", luma)
	}
}
