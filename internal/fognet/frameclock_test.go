package fognet

import (
	"net"
	"slices"
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// The session frame clock's wake rule (runVideoSession): a change to the
// player's own avatar sends a frame at once, rate-limited to minFrameGap;
// anything else waits for the clock. The tests run the slow-clock fog, whose
// 400 ms period tells a wake frame from a clock frame on a loaded box.

const slowFrameGap = slowFrames / frameGapDivisor

// frameObs is one video frame as the player received it.
type frameObs struct {
	tick uint64
	at   time.Time
}

// recordFrames reads a raw video session until it ends and returns every
// frame, stamped on arrival. It lifts attachRaw's read deadline.
func recordFrames(conn net.Conn, fr *protocol.FrameReader) <-chan frameObs {
	conn.SetReadDeadline(time.Time{})
	out := make(chan frameObs, 4096) // every frame of a test: the reader never blocks
	go func() {
		defer close(out)
		var ef videocodec.EncodedFrame
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				return // closed by the cleanup
			}
			if typ == protocol.MsgVideoFrame && videocodec.UnmarshalFrameInto(payload, &ef) == nil {
				out <- frameObs{tick: ef.Tick, at: time.Now()}
			}
		}
	}()
	return out
}

func nextFrame(t *testing.T, frames <-chan frameObs, within time.Duration) frameObs {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("video session ended")
		}
		return f
	case <-time.After(within):
		t.Fatalf("no frame within %v", within)
	}
	return frameObs{}
}

// firstCountedFrame waits for the one session's first frame, sent with the attach
// or on the spawn's wake, and for the fog to have counted it: a session
// counts a frame once it is written.
func firstCountedFrame(t *testing.T, fog *FogNode, frames <-chan frameObs) frameObs {
	t.Helper()
	f := nextFrame(t, frames, 2*slowFrames)
	waitFor(t, slowFrames, "the first frame counted", func() bool { return fog.Stats().Frames >= 1 })
	return f
}

// framesUntil collects every frame that arrives before deadline.
func framesUntil(t *testing.T, frames <-chan frameObs, deadline time.Time) []frameObs {
	t.Helper()
	var got []frameObs
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("video session ended")
			}
			got = append(got, f)
		case <-time.After(time.Until(deadline)):
			return got
		}
	}
}

// An acting player's frame answers its action: the frame that shows the
// action's tick leaves the moment the update lands, not at the next tick of
// the frame clock.
func TestOwnInputFrameAnswersAction(t *testing.T) {
	cloud := startPacedCloud(t, slowTick)
	sink := startSink(t, cloud)
	fog := startSlowFog(t, cloud, "fog-a")
	player, _ := joinRaw(t, cloud, 9, 300, 300)
	video, fr, _ := attachRaw(t, fog.StreamAddr(), 9)
	frames := recordFrames(video, fr)
	last := firstCountedFrame(t, fog, frames)

	for tag := uint8(1); tag <= 3; tag++ {
		// Act past the rate limit and well before the clock's next frame,
		// so a wake frame and a clock frame cannot be confused.
		time.Sleep(time.Until(last.at.Add(slowFrameGap + slowFrameGap/2)))
		before := fog.Stats()
		if err := player.emote(tag); err != nil {
			t.Fatal(err)
		}
		var landed batchObs
		for landed.deltas = nil; len(landed.deltas) != 1 || landed.deltas[0].Entity.State != tag; {
			landed = nextBatch(t, sink, 3*slowTick)
		}
		for last = nextFrame(t, frames, 2*slowFrames); last.tick < landed.tick; {
			last = nextFrame(t, frames, 2*slowFrames)
		}
		if wait := last.at.Sub(landed.at); wait >= slowFrames/4 {
			t.Errorf("emote %d: the frame showing tick %d came %v after the update, want well under the %v period",
				tag, landed.tick, wait, slowFrames)
		}
		waitFor(t, slowFrameGap, "the early frame counted", func() bool { return fog.Stats().EarlyFrames > before.EarlyFrames })
		if early := fog.Stats().EarlyFrames - before.EarlyFrames; early != 1 {
			t.Errorf("emote %d: %d early frames, want 1", tag, early)
		}
	}
}

// Another player's actions change nothing for a session, even in the cells
// it watches: it gets the frame clock's frames and no others.
func TestOwnInputFrameIgnoresNeighbour(t *testing.T) {
	cloud := startPacedCloud(t, 30*time.Millisecond)
	fog := startSlowFog(t, cloud, "fog-a")
	joinRaw(t, cloud, 9, 300, 300)
	neighbour, _ := joinRaw(t, cloud, 10, 310, 300) // in view, never attached
	video, fr, _ := attachRaw(t, fog.StreamAddr(), 9)
	frames := recordFrames(video, fr)
	firstCountedFrame(t, fog, frames)

	before := fog.Stats()
	stop := neighbour.streamInputs(20 * time.Millisecond)
	const periods = 5
	start := time.Now()
	got := framesUntil(t, frames, start.Add(periods*slowFrames))
	stop()
	if n := len(got); n < periods-1 || n > periods+1 {
		t.Errorf("%d frames in %d frame periods of a neighbour acting, want %d±1", n, periods, periods)
	}
	if early := fog.Stats().EarlyFrames - before.EarlyFrames; early != 0 {
		t.Errorf("a neighbour's actions sent %d early frames", early)
	}
}

// Own-avatar updates 2 ms apart are rate-limited, not coalesced away: frames
// come about minFrameGap apart, never closer.
func TestOwnInputFrameRateLimited(t *testing.T) {
	cloud := startPacedCloud(t, 20*time.Millisecond) // ticks as close as 2 ms apart
	fog := startSlowFog(t, cloud, "fog-a")
	player, _ := joinRaw(t, cloud, 9, 300, 300)
	video, fr, _ := attachRaw(t, fog.StreamAddr(), 9)
	frames := recordFrames(video, fr)
	firstCountedFrame(t, fog, frames)

	before := fog.Stats()
	stop := player.streamInputs(2 * time.Millisecond)
	const window = 4 * slowFrames
	got := framesUntil(t, frames, time.Now().Add(window))
	stop()
	// Arrival jitter can shave a gap as the box schedules the two ends;
	// the floor is what the session itself keeps.
	const slack = 20 * time.Millisecond
	for i := 1; i < len(got); i++ {
		if gap := got[i].at.Sub(got[i-1].at); gap < slowFrameGap-slack {
			t.Errorf("frames %d and %d came %v apart, want at least the %v gap", i-1, i, gap, slowFrameGap)
		}
	}
	if most := int(window/slowFrameGap) + 1; len(got) < most/2 || len(got) > most {
		t.Errorf("%d frames in %v of own input, want %d to %d (one per %v gap)", len(got), window, most/2, most, slowFrameGap)
	}
	if early := fog.Stats().EarlyFrames - before.EarlyFrames; early == 0 {
		t.Error("own input sent no early frame")
	}
}

// An early frame restarts the frame clock from its own start: whatever the
// phase of the player's inputs, no gap between two frames is longer than
// one frame period.
func TestOwnInputFrameGapBounded(t *testing.T) {
	cloud := startPacedCloud(t, 30*time.Millisecond)
	fog := startSlowFog(t, cloud, "fog-a")
	player, _ := joinRaw(t, cloud, 9, 300, 300)
	video, fr, _ := attachRaw(t, fog.StreamAddr(), 9)
	frames := recordFrames(video, fr)
	firstCountedFrame(t, fog, frames)

	before := fog.Stats()
	start := time.Now()
	// Pauses that land the inputs at every phase of the clock: early in a
	// period, late in one, inside the rate limit, and after a whole period
	// of nothing.
	pauses := []time.Duration{130, 290, 370, 60, 450, 220, 390, 30, 310}
	for i, pause := range pauses {
		time.Sleep(pause * time.Millisecond)
		if err := player.emote(uint8(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	got := framesUntil(t, frames, time.Now().Add(2*slowFrames))
	// A frame's start, not its arrival, is what the clock keeps; arrival
	// can stretch a gap by the two ends' scheduling.
	const slack = 40 * time.Millisecond
	prev := start
	for i, f := range got {
		if gap := f.at.Sub(prev); gap > slowFrames+slack {
			t.Errorf("frame %d came %v after the one before, want at most the %v period", i, gap, slowFrames)
		}
		prev = f.at
	}
	if early := fog.Stats().EarlyFrames - before.EarlyFrames; early < int64(len(pauses))/2 {
		t.Errorf("%d inputs sent %d early frames, want at least %d", len(pauses), early, len(pauses)/2)
	}
}

// An early frame moves the frame clock's phase, not its period: once the
// player stops acting, clock frames come one period apart again — a period
// after the early frame, and a period after each other. That holds when the
// loop took up the clock tick before the early frame late, too: the test
// holds the fog's lock for two periods from a quarter period after a clock
// frame, so the session sits in the next frame's view while the tick after
// it fires and waits, and the player acts on the release.
func TestOwnInputFrameClockKeepsPeriod(t *testing.T) {
	cloud := startPacedCloud(t, 30*time.Millisecond)
	fog := startSlowFog(t, cloud, "fog-a")
	player, _ := joinRaw(t, cloud, 9, 300, 300)
	video, fr, _ := attachRaw(t, fog.StreamAddr(), 9)
	frames := recordFrames(video, fr)
	firstCountedFrame(t, fog, frames)
	// Let any frame the spawn woke pass; the next one is the clock's.
	framesUntil(t, frames, time.Now().Add(slowFrames))
	clock := nextFrame(t, frames, 2*slowFrames)

	time.Sleep(time.Until(clock.at.Add(slowFrames / 4)))
	before := fog.Stats()
	fog.mu.Lock()
	time.Sleep(2 * slowFrames)
	fog.mu.Unlock()
	if err := player.emote(1); err != nil {
		t.Fatal(err)
	}
	// The held frame and the late tick's frame go out on the release, the
	// early frame a gap later, and the clock's next tick is due three
	// quarters of a period after the release.
	released := framesUntil(t, frames, time.Now().Add(2*slowFrameGap))
	waitFor(t, slowFrameGap, "the early frame counted", func() bool { return fog.Stats().EarlyFrames > before.EarlyFrames })
	if len(released) == 0 {
		t.Fatal("no frame after the release")
	}
	early := released[len(released)-1]
	const periods = 6
	got := framesUntil(t, frames, early.at.Add(periods*slowFrames+slowFrameGap))
	if n := len(got); n < periods-1 || n > periods+1 {
		t.Errorf("%d frames in %d idle frame periods after an early frame, want %d±1", n, periods, periods)
	}
	// Arrival jitter can shave a gap as the box schedules the two ends.
	const slack = 40 * time.Millisecond
	prev := early.at
	for i, f := range got {
		if gap := f.at.Sub(prev); gap < slowFrames-slack {
			t.Errorf("idle frame %d came %v after the one before, want the %v period", i, gap, slowFrames)
		}
		prev = f.at
	}
	if n := fog.Stats().EarlyFrames - before.EarlyFrames; n != 1 {
		t.Errorf("one emote sent %d early frames, want 1", n)
	}
}

// The extra frames a player's own inputs buy do not read as bandwidth to
// §3.3's controller. A player acting at 20 Hz holds its level through many
// adaptation windows, and the rate it receives stays within its own rung's
// bitrate: the extra frames neither overshoot the encoder's per-frame budget
// nor come near the next rung, the bar an up-switch must clear. The game
// starts on the lowest rung, so a down-switch cannot show: on loopback the
// synthetic world never fills a higher one, and the controller walks down
// from there with or without extra frames.
func TestOwnInputFrameHoldsLevel(t *testing.T) {
	cloud := startCloud(t)
	fog, err := NewFogNode(FogConfig{Name: "fog-a", CloudAddr: cloud.Addr(), Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	g := game.Catalog()[0]
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 9, CloudAddr: cloud.Addr(), Game: g,
		ActionInterval: 50 * time.Millisecond,
		Adapt:          true,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "first frame", func() bool { return player.Stats().Frames >= 1 })
	before, fbefore, start := player.Stats(), fog.Stats(), time.Now()
	const windows = 8
	time.Sleep(windows * adaptWindow)
	st, fst := player.Stats(), fog.Stats()
	if st.RateSwitches != 0 || st.Level != g.DefaultQuality {
		t.Errorf("level %d → %d with %d switches over %d adaptation windows, want it held",
			g.DefaultQuality, st.Level, st.RateSwitches, windows)
	}
	kbps := float64(st.VideoBits-before.VideoBits) / time.Since(start).Seconds() / 1000
	if own := game.MustQuality(g.DefaultQuality).BitrateKbps; kbps > own {
		t.Errorf("received %.0f kbps at level %d, over its %.0f kbps budget", kbps, g.DefaultQuality, own)
	}
	early, frames := fst.EarlyFrames-fbefore.EarlyFrames, fst.Frames-fbefore.Frames
	if early == 0 {
		t.Error("the player's actions sent no early frame: the controller saw no extra frames")
	}
	t.Logf("%d frames, %d early, %.0f kbps at level %d", frames, early, kbps, st.Level)
}

// attachFallbackRaw opens a cloud-streamed session at the protocol level:
// the probe that tells the cloud a video session from its other peers, then
// the attach, at the cheapest quality level.
func attachFallbackRaw(t *testing.T, cloud *CloudServer, id int32) (net.Conn, *protocol.FrameReader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", cloud.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fr := protocol.NewFrameReader(conn)
	if _, err := exchange(conn, fr, 5*time.Second, protocol.MsgProbe, nil, protocol.MsgProbeReply); err != nil {
		t.Fatal(err)
	}
	at := protocol.PlayerAttach{PlayerID: id, QualityLevel: 1}
	payload, err := exchange(conn, fr, 5*time.Second, protocol.MsgPlayerAttach, at.Marshal(), protocol.MsgAttachReply)
	if err != nil {
		t.Fatal(err)
	}
	if ack, aerr := protocol.UnmarshalAttachReply(payload); aerr != nil || !ack.OK {
		t.Fatalf("attach refused: %+v, err %v", ack, aerr)
	}
	return conn, fr
}

// A cloud-streamed session answers its own player as a fog's does: the
// tick that applies the player's input wakes the session, so the frame
// showing it leaves at once rather than at the frame clock's next tick.
func TestFallbackOwnInputFrameAnswersAction(t *testing.T) {
	cloud := startPacedCloud(t, DefaultTickInterval)
	sink := startSink(t, cloud)
	player, _ := joinRaw(t, cloud, 9, 300, 300)
	video, fr := attachFallbackRaw(t, cloud, 9)
	frames := recordFrames(video, fr)
	const emotes = 8
	gap := DefaultFrameInterval / frameGapDivisor
	var waits []time.Duration
	for tag := uint8(1); tag <= emotes; tag++ {
		// Act on a fresh frame's heels, past the rate limit and well before
		// the clock's next frame.
		for len(frames) > 0 {
			<-frames
		}
		last := nextFrame(t, frames, time.Second)
		time.Sleep(time.Until(last.at.Add(gap + gap/2)))
		sent := time.Now()
		if err := player.emote(tag); err != nil {
			t.Fatal(err)
		}
		var landed batchObs
		for landed.deltas = nil; len(landed.deltas) != 1 || landed.deltas[0].Entity.State != tag; {
			landed = nextBatch(t, sink, time.Second)
		}
		for last = nextFrame(t, frames, time.Second); last.tick < landed.tick; {
			last = nextFrame(t, frames, time.Second)
		}
		waits = append(waits, last.at.Sub(sent))
	}
	slices.Sort(waits)
	t.Logf("emote→frame: %v", waits)
	if median := waits[emotes/2]; median >= DefaultFrameInterval/4 {
		t.Errorf("median emote→frame %v, want under a quarter of the %v frame period", median, DefaultFrameInterval)
	}
}

// With the cloud link down, a fog buffers a player's inputs up to the
// per-player bound and then drops the oldest: inputs age poorly, so the
// newest are the ones worth sending once the link is back.
func TestOutageBufferDropsOldest(t *testing.T) {
	f := &FogNode{actionQ: make(map[int32][]virtualworld.Action)}
	const sent = maxBufferedActionsPerPlayer + 6
	for i := 0; i < sent; i++ {
		f.submitAction(virtualworld.Action{Player: 7, Kind: virtualworld.ActMove, TargetX: float64(i)})
	}
	q := f.actionQ[7]
	if len(q) != maxBufferedActionsPerPlayer {
		t.Fatalf("queue holds %d actions, want %d", len(q), maxBufferedActionsPerPlayer)
	}
	for i, a := range q {
		if want := float64(sent - maxBufferedActionsPerPlayer + i); a.TargetX != want {
			t.Fatalf("queue[%d] is action %v, want %v: not the last %d in order", i, a.TargetX, want, maxBufferedActionsPerPlayer)
		}
	}
	if d := f.stats.Resilience.DroppedActions; d != 6 {
		t.Errorf("DroppedActions = %d, want 6", d)
	}
}
