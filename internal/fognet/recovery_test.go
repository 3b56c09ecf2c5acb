package fognet

import (
	"net"
	"testing"
	"time"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/faultnet"
	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
)

// TestNextBackoffCapped is the regression for the shared retry helper:
// the doubling must stop at the cap, the jitter must stay inside ±50% of
// the (clamped) base, and the same seed must replay the same schedule.
func TestNextBackoffCapped(t *testing.T) {
	const max = 400 * time.Millisecond
	j := rng.New(1).SplitNamed("backoff-test")
	cur := 50 * time.Millisecond
	for i := 0; i < 20; i++ {
		base := cur
		if base > max {
			base = max
		}
		sleep, next := nextBackoff(j, cur, max)
		if sleep < base/2 || sleep > base+base/2 {
			t.Fatalf("round %d: sleep %v outside [%v, %v]", i, sleep, base/2, base+base/2)
		}
		if next > max {
			t.Fatalf("round %d: next %v exceeds cap %v", i, next, max)
		}
		cur = next
	}
	if cur != max {
		t.Fatalf("backoff settled at %v, want cap %v", cur, max)
	}
	// Even a pathological caller that feeds a base above the cap must get
	// a clamped sleep back.
	sleep, next := nextBackoff(j, time.Hour, max)
	if sleep > max+max/2 || next != max {
		t.Fatalf("over-cap input: sleep=%v next=%v, want <=%v and %v", sleep, next, max+max/2, max)
	}
	// Same seed, same schedule.
	a, b := rng.New(9).SplitNamed("backoff-test"), rng.New(9).SplitNamed("backoff-test")
	ca, cb := 50*time.Millisecond, 50*time.Millisecond
	for i := 0; i < 10; i++ {
		sa, na := nextBackoff(a, ca, max)
		sbs, nb := nextBackoff(b, cb, max)
		if sa != sbs || na != nb {
			t.Fatalf("round %d: same seed diverged (%v,%v) vs (%v,%v)", i, sa, na, sbs, nb)
		}
		ca, cb = na, nb
	}
}

// TestCheckpointEncodeSteadyStateAllocs pins the tentpole's zero-alloc
// claim: capturing and encoding a full checkpoint on the tick path reuses
// the server's scratch State, the pooled payload buffer, and the shared
// wrapper — zero allocations per checkpoint once warm.
func TestCheckpointEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under -race; allocation counts only hold without it")
	}
	cloud := startCloud(t)
	cycle := func() {
		cloud.mu.Lock()
		sp := cloud.encodeCheckpointLocked(1)
		cloud.mu.Unlock()
		sp.release()
	}
	for i := 0; i < 8; i++ { // warm-up: grow scratch and pools
		cycle()
	}
	if n := testing.AllocsPerRun(64, cycle); n != 0 {
		t.Fatalf("checkpoint encode allocates %.1f/op in steady state, want 0", n)
	}
}

// standbyLinkFixture starts a cloud whose accepted connections pass
// through a faultnet injector, with an attached standby, a small send
// queue, and a short write timeout — the rig for exercising the
// link writer's drop-and-release path on the checkpoint stream.
func standbyLinkFixture(t *testing.T, seed uint64) (*faultnet.Injector, *CloudServer, *Standby) {
	t.Helper()
	inj := faultnet.NewInjector(faultnet.Profile{Seed: seed})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloudServer(CloudConfig{
		Listener:        inj.WrapListener(ln),
		TickInterval:    2 * time.Millisecond,
		CheckpointEvery: 2,
		NPCs:            4,
		WriteTimeout:    200 * time.Millisecond,
		SendQueueLen:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	sb, err := NewStandby(StandbyConfig{
		PrimaryAddr:      cloud.Addr(),
		PromoteAfter:     time.Hour, // follower only: promotion is not under test
		ReconnectBackoff: 10 * time.Millisecond,
		Seed:             seed,
		Cloud:            CloudConfig{TickInterval: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sb.Close() })
	waitFor(t, 5*time.Second, "standby attach", func() bool {
		return cloud.Stats().StandbyAttached
	})
	waitFor(t, 5*time.Second, "first checkpoint", func() bool {
		return sb.Stats().Checkpoints >= 1
	})
	return inj, cloud, sb
}

// TestStandbyLinkStallDropsAndDetaches: a stalled (zero-window) standby
// link must not stall the tick loop. The bounded send queue fills, the
// enqueue path drops and releases the overflow (refcounted payloads go
// back to the pool), and once the coalescing writer's deadline fires the
// dead follower is detached — then the real standby redials and
// re-attaches through the same injector.
func TestStandbyLinkStallDropsAndDetaches(t *testing.T) {
	inj, cloud, sb := standbyLinkFixture(t, 31)
	drops0 := cloud.Stats().Resilience.SendQueueDrops
	attaches0 := sb.Stats().Attaches
	tick0 := cloud.Stats().Tick

	inj.SetMode(faultnet.Stall)
	waitFor(t, 5*time.Second, "queue overflow drops", func() bool {
		return cloud.Stats().Resilience.SendQueueDrops > drops0
	})
	// The standby redials within 5–15 ms of the detach, so a poll can miss
	// the gap itself; a second attach proves the first link was dropped.
	waitFor(t, 5*time.Second, "stalled follower detached", func() bool {
		return !cloud.Stats().StandbyAttached || sb.Stats().Attaches > attaches0
	})
	// The authority never stopped ticking while its follower was stuck.
	if tickNow := cloud.Stats().Tick; tickNow <= tick0 {
		t.Fatalf("tick loop stalled with the follower: tick %d -> %d", tick0, tickNow)
	}
	// New connections are healthy (SetMode only flips existing conns), so
	// the follower recovers on its own.
	waitFor(t, 10*time.Second, "standby re-attach", func() bool {
		return sb.Stats().Attaches > attaches0 && cloud.Stats().StandbyAttached
	})
}

// TestStandbyLinkResetDetachesAndRecovers: an abrupt reset on the standby
// link fails the coalescing writer immediately; the follower must be
// detached without disturbing the tick loop and the standby must redial
// and resume absorbing checkpoints.
func TestStandbyLinkResetDetachesAndRecovers(t *testing.T) {
	inj, cloud, sb := standbyLinkFixture(t, 32)
	attaches0 := sb.Stats().Attaches
	inj.SetMode(faultnet.Reset)
	waitFor(t, 5*time.Second, "reset follower detached", func() bool {
		return !cloud.Stats().StandbyAttached || sb.Stats().Attaches > attaches0
	})
	waitFor(t, 10*time.Second, "standby re-attach after reset", func() bool {
		return sb.Stats().Attaches > attaches0 && cloud.Stats().StandbyAttached
	})
	ck0 := sb.Stats().Checkpoints
	waitFor(t, 5*time.Second, "checkpoints resume", func() bool {
		return sb.Stats().Checkpoints > ck0
	})
}

// TestPrimaryFailoverResume is the tentpole chaos test: kill the primary
// cloud mid-run and assert that
//
//   - the warm standby promotes within its silence threshold,
//   - the restored world is BIT-IDENTICAL to an independent replay of the
//     final durable checkpoint+log stream (hash equality),
//   - nothing durable is lost: the player's session and avatar survive,
//   - the supernode and the player resume via MsgResume (no rejoin) and
//     the resume lands within a bounded number of ticks of the restore
//     point, and
//   - video frames keep flowing afterwards.
//
// The three measured recovery latencies are logged.
func TestPrimaryFailoverResume(t *testing.T) {
	primary, err := NewCloudServer(CloudConfig{
		TickInterval:      5 * time.Millisecond,
		NPCs:              4,
		CheckpointEvery:   4,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	sb, err := NewStandby(StandbyConfig{
		PrimaryAddr:      primary.Addr(),
		PromoteAfter:     400 * time.Millisecond,
		ReconnectBackoff: 20 * time.Millisecond,
		Seed:             11,
		Cloud: CloudConfig{
			TickInterval:      5 * time.Millisecond,
			HeartbeatInterval: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	// The standby attaches before anyone else joins, so every welcome and
	// join reply advertises its address as the failover rung.
	waitFor(t, 5*time.Second, "standby attach", func() bool {
		return primary.Stats().StandbyAttached
	})

	fog := startFog(t, primary, "fog-recovery", 4)
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 1, CloudAddr: primary.Addr(),
		ActionInterval: 10 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "player streaming", func() bool {
		return player.Stats().Frames > 5
	})
	// Wait for a checkpoint that covers the player's session, so the
	// durable state we are about to lose the primary from includes it.
	ckAtJoin := sb.Stats().Checkpoints
	waitFor(t, 5*time.Second, "post-join checkpoint", func() bool {
		return sb.Stats().Checkpoints > ckAtJoin
	})

	// CRASH: hard close, no goodbye, no drain. In-flight tick state past
	// the last log entry is legitimately gone; everything durable must
	// survive.
	primary.Close()
	killedAt := time.Now()
	// The follower's connection dies with the primary; give the dust an
	// instant to settle and the stream is final.
	time.Sleep(50 * time.Millisecond)

	// Deep-copy the standby's durable view (codec round-trip = deep copy)
	// and replay it INDEPENDENTLY of the standby's own promotion.
	sb.mu.Lock()
	if sb.state == nil {
		sb.mu.Unlock()
		t.Fatal("standby holds no checkpoint at kill time")
	}
	var expSt checkpoint.State
	if derr := checkpoint.DecodeState(sb.state.AppendTo(nil), &expSt); derr != nil {
		sb.mu.Unlock()
		t.Fatalf("clone checkpoint: %v", derr)
	}
	entries := make([]checkpoint.LogEntry, len(sb.entries))
	for i := range sb.entries {
		if derr := checkpoint.DecodeLogEntry(sb.entries[i].AppendTo(nil), &entries[i]); derr != nil {
			sb.mu.Unlock()
			t.Fatalf("clone log entry %d: %v", i, derr)
		}
	}
	sb.mu.Unlock()

	w := checkpoint.Replay(&expSt, entries)
	w.SnapshotInto(&expSt.World)
	expSt.NextID = w.NextID()
	expSt.Canonicalize()
	expHash := checkpoint.Hash(expSt.AppendTo(nil))
	expTick := expSt.World.Tick
	sessionSurvived := false
	for _, id := range expSt.Sessions {
		if id == 1 {
			sessionSurvived = true
		}
	}
	if !sessionSurvived {
		t.Fatal("durable state at kill time lost player 1's session")
	}

	waitFor(t, 10*time.Second, "promotion", func() bool {
		return sb.Promoted() != nil
	})
	promoted := sb.Promoted()
	promoteMs := time.Since(killedAt).Milliseconds()
	ps := promoted.Stats()
	if ps.RestoredHash != expHash {
		t.Fatalf("restored state hash %#x != independent replay %#x — restore is not bit-identical",
			ps.RestoredHash, expHash)
	}
	if ps.RestoredTick != expTick {
		t.Fatalf("restored tick %d != replayed tick %d", ps.RestoredTick, expTick)
	}
	if want := expSt.Epoch + 1; ps.Epoch != want {
		t.Fatalf("promoted epoch %d, want %d", ps.Epoch, want)
	}

	waitFor(t, 10*time.Second, "supernode resume", func() bool {
		return fog.Stats().Resilience.Resumes >= 1
	})
	fogResumeMs := time.Since(killedAt).Milliseconds()
	waitFor(t, 10*time.Second, "player control-plane resume", func() bool {
		st := player.Stats()
		return st.CtrlResumes >= 1 && st.Epoch == ps.Epoch
	})
	playerResumeMs := time.Since(killedAt).Milliseconds()

	// Bounded-tick resume: the promoted authority had ticked only as far
	// as the recovery window allows when both tiers were back.
	resumeTick := promoted.Stats().Tick
	const maxResumeTicks = 4000 // 5ms ticks: 20s, the waitFor budget
	if resumeTick-expTick > maxResumeTicks {
		t.Fatalf("resume landed %d ticks after restore, want <= %d", resumeTick-expTick, maxResumeTicks)
	}

	// Zero lost durable state: the avatar the session owned is alive on
	// the promoted authority.
	promoted.mu.Lock()
	_, ok := promoted.world.Avatar(1)
	promoted.mu.Unlock()
	if !ok {
		t.Fatal("player 1's avatar did not survive the failover")
	}

	// And the player is actually playing again.
	f0 := player.Stats().Frames
	waitFor(t, 10*time.Second, "frames after failover", func() bool {
		return player.Stats().Frames > f0+5
	})

	t.Logf("promote %d ms, fog resume %d ms, player resume %d ms after the kill", promoteMs, fogResumeMs, playerResumeMs)
}

// TestShutdownFlushesFinalCheckpoint: Shutdown must not close a link under
// a write that is still going out. The standby and a supernode sit behind
// a bandwidth-shaped link on which the 20k-entity final checkpoint takes
// well over 100 ms; the writer has moved it out of the send queue long
// before that, so a drain that watches the queue's length closes the
// socket mid-write and leaves the standby one checkpoint behind. Ticks are
// driven by hand, so the cloud's last tick is exact.
func TestShutdownFlushesFinalCheckpoint(t *testing.T) {
	inj := faultnet.NewInjector(faultnet.Profile{Seed: 41, BandwidthKbps: 50_000})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := NewCloudServer(CloudConfig{
		Listener:          inj.WrapListener(ln),
		TickInterval:      time.Hour, // the test ticks
		HeartbeatInterval: time.Hour,
		CheckpointEvery:   1 << 30, // only the attach and the final checkpoint
		NPCs:              20000,
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
	waitFor(t, 5*time.Second, "attach checkpoint", func() bool { return sb.Stats().Checkpoints == 1 })

	// The fog is a supernode at the protocol level, so the test sees the
	// goodbye itself.
	fog, err := net.DialTimeout("tcp", cloud.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	hello := protocol.SupernodeHello{Name: "fog", Capacity: 1, StreamAddr: "127.0.0.1:1"}
	if err := protocol.WriteMessage(fog, protocol.MsgSupernodeHello, hello.Marshal()); err != nil {
		t.Fatal(err)
	}
	fr := protocol.NewFrameReader(fog)
	fog.SetReadDeadline(time.Now().Add(10 * time.Second))
	if typ, _, err := fr.Next(); err != nil || typ != protocol.MsgSupernodeWelcome {
		t.Fatalf("welcome: type %d, err %v", typ, err)
	}
	gotBye := make(chan bool, 1)
	go func() {
		for {
			typ, _, err := fr.Next()
			if err != nil || typ == protocol.MsgBye {
				gotBye <- err == nil
				return
			}
		}
	}()

	for i := 0; i < 3; i++ {
		cloud.tickOnce(true)
	}
	last := cloud.Stats().Tick
	if err := cloud.Shutdown(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the final checkpoint at the standby", func() bool {
		sb.mu.Lock()
		defer sb.mu.Unlock()
		return sb.state.World.Tick == last
	})
	if !<-gotBye {
		t.Fatal("the supernode's link closed before MsgBye arrived")
	}
}

// TestActionsRerouteThroughFog drives the outage-input path: a player whose
// control link refuses writes sends its inputs over the video session and
// the fog forwards them to the cloud; while the fog's own cloud link is down
// too the fog buffers them, and it flushes them when it reconnects. The
// links are stalled, not blackholed: a blackholed write succeeds, so
// nothing would reroute.
func TestActionsRerouteThroughFog(t *testing.T) {
	const id = 51
	cloud := startChaosCloud(t, nil)
	fogInj := faultnet.NewInjector(faultnet.Profile{Seed: id})
	fog, err := NewFogNode(FogConfig{
		Name: "fog-reroute", CloudAddr: cloud.Addr(), Capacity: 4,
		FrameInterval: 10 * time.Millisecond, Dial: fogInj.Dial,
		ReconnectBackoff: 20 * time.Millisecond, WriteTimeout: 50 * time.Millisecond, Seed: id,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	playerInj := faultnet.NewInjector(faultnet.Profile{Seed: id + 1})
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: id, CloudAddr: cloud.Addr(), ActionInterval: 10 * time.Millisecond, Seed: id,
		Dial: playerInj.Dial, WriteTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "streaming from the fog", func() bool {
		return fog.Stats().Attached == 1 && player.Stats().Frames > 3
	})

	// Only the player's control link stalls: every input takes the fog.
	playerInj.SetAddrMode(cloud.Addr(), faultnet.Stall)
	waitFor(t, 5*time.Second, "a rerouted input at the cloud", func() bool {
		return cloud.Stats().Resilience.ForwardedActions > 0
	})
	x0, y0, _ := cloudAvatarPos(cloud, id)
	forwarded := cloud.Stats().Resilience.ForwardedActions
	waitFor(t, 10*time.Second, "the avatar moving on rerouted inputs", func() bool {
		x, y, ok := cloudAvatarPos(cloud, id)
		return ok && (x != x0 || y != y0) && cloud.Stats().Resilience.ForwardedActions > forwarded
	})
	if ps, fs := player.Stats(), fog.Stats(); ps.ReroutedActions == 0 || fs.Resilience.ForwardedActions == 0 {
		t.Fatalf("rerouted %d at the player, forwarded %d at the fog; want both > 0", ps.ReroutedActions, fs.Resilience.ForwardedActions)
	}

	// The fog's link stalls too: it buffers. The stall holds until the cloud
	// has evicted the silent fog, so healing means a reconnect — the path
	// that flushes the buffer.
	fogInj.SetAddrMode(cloud.Addr(), faultnet.Stall)
	waitFor(t, 5*time.Second, "the fog buffering, then evicted", func() bool {
		return fog.Stats().BufferedNow > 0 && cloud.Stats().Resilience.Evictions > 0
	})
	held, before := fog.Stats(), cloud.Stats()
	playerInj.SetAddrMode(cloud.Addr(), faultnet.Healthy)
	fogInj.SetAddrMode(cloud.Addr(), faultnet.Healthy)
	waitFor(t, 10*time.Second, "the buffered inputs forwarded and applied", func() bool {
		fs, cs := fog.Stats(), cloud.Stats()
		return fs.Resilience.Reconnects > 0 && fs.BufferedNow == 0 &&
			fs.Resilience.ForwardedActions >= held.Resilience.ForwardedActions+int64(held.BufferedNow) &&
			cs.Resilience.ForwardedActions >= before.Resilience.ForwardedActions+int64(held.BufferedNow)
	})
	if fs, ps := fog.Stats(), player.Stats(); fs.Resilience.BufferedActions == 0 || fs.Resilience.DroppedActions != 0 || ps.BufferedActions != 0 {
		t.Errorf("fog buffered %d and dropped %d, player buffered %d: want the fog's bounded buffer to take every input",
			fs.Resilience.BufferedActions, fs.Resilience.DroppedActions, ps.BufferedActions)
	}
}
