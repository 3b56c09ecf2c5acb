package fognet

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cloudfog/internal/faultnet"
	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
	"cloudfog/internal/selection"
	"cloudfog/internal/virtualworld"
)

// startCloud creates a fast-ticking cloud server for tests.
func startCloud(t *testing.T) *CloudServer {
	t.Helper()
	cloud, err := NewCloudServer(CloudConfig{
		TickInterval: 5 * time.Millisecond,
		NPCs:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	return cloud
}

func startFog(t *testing.T, cloud *CloudServer, name string, capacity int) *FogNode {
	t.Helper()
	fog, err := NewFogNode(FogConfig{
		Name:          name,
		CloudAddr:     cloud.Addr(),
		Capacity:      capacity,
		FrameInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fog.Close() })
	return fog
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestSupernodeRegistration(t *testing.T) {
	cloud := startCloud(t)
	fog := startFog(t, cloud, "fog-1", 4)
	if fog.ID() == 0 {
		t.Error("no supernode ID assigned")
	}
	stats := cloud.Stats()
	if stats.Supernodes != 1 {
		t.Errorf("registered supernodes = %d", stats.Supernodes)
	}
	// The replica was seeded with the NPCs.
	if got := fog.Stats(); got.ReplicaTick != 0 && got.AppliedDeltas == 0 {
		t.Errorf("replica not seeded: %+v", got)
	}
}

func TestSupernodeLeaveUnregisters(t *testing.T) {
	cloud := startCloud(t)
	fog := startFog(t, cloud, "fog-1", 4)
	fog.Close()
	waitFor(t, 2*time.Second, "unregistration", func() bool {
		return cloud.Stats().Supernodes == 0
	})
}

func TestEndToEndStreaming(t *testing.T) {
	cloud := startCloud(t)
	startFog(t, cloud, "fog-1", 4)

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       7,
		CloudAddr:      cloud.Addr(),
		Game:           game.Catalog()[2],
		ActionInterval: 10 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	// The full loop must close: actions reach the cloud, the world
	// advances, deltas reach the fog replica, frames reach the player,
	// and the frames depict a recent world tick.
	waitFor(t, 5*time.Second, "decoded frames", func() bool {
		s := player.Stats()
		return s.Frames >= 10 && s.LastTick > 0
	})
	stats := player.Stats()
	if stats.DecodeErrors > stats.Frames/10 {
		t.Errorf("decode errors: %d of %d frames", stats.DecodeErrors, stats.Frames)
	}
	if stats.VideoBits == 0 {
		t.Error("no video volume counted")
	}
	cs := cloud.Stats()
	if cs.Players != 1 || cs.UpdateBits == 0 {
		t.Errorf("cloud stats: %+v", cs)
	}
}

// TestFullEncodesSettle watches a live 720p session for the failure that
// would silently give back the codec's cost: a session that re-creates
// its Frame, or whose rate controller keeps changing the quantization
// step, encodes every tile of every frame. The first frame and the
// controller's first steps are full encodes by rights; once it has
// settled — over frames 31 to 60, a GOP's I-frame among them — none is.
func TestFullEncodesSettle(t *testing.T) {
	cloud := startCloud(t)
	fog := startFog(t, cloud, "fog-1", 4)
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 7, CloudAddr: cloud.Addr(), Game: game.Catalog()[4],
		ActionInterval: 10 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	var at30, at60 FogStats
	waitFor(t, 10*time.Second, "30 frames", func() bool { at30 = fog.Stats(); return at30.Frames >= 30 })
	waitFor(t, 10*time.Second, "60 frames", func() bool { at60 = fog.Stats(); return at60.Frames >= at30.Frames+30 })
	if at30.FullEncodes == 0 {
		t.Error("the session's first frame was not counted as a full encode")
	}
	if at60.FullEncodes != at30.FullEncodes {
		t.Errorf("%d of frames %d..%d were encoded with every tile dirty (%d before them)",
			at60.FullEncodes-at30.FullEncodes, at30.Frames+1, at60.Frames, at30.FullEncodes)
	}
	if ps := player.Stats(); ps.DecodeErrors != 0 {
		t.Errorf("%d decode errors", ps.DecodeErrors)
	}
}

func TestReplicaTracksWorld(t *testing.T) {
	cloud := startCloud(t)
	fog := startFog(t, cloud, "fog-1", 4)
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 3, CloudAddr: cloud.Addr(),
		ActionInterval: 5 * time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "replica deltas", func() bool {
		s := fog.Stats()
		return s.AppliedDeltas > 5 && s.ReplicaTick > 0
	})
}

func TestCapacityProbingFallsThrough(t *testing.T) {
	cloud := startCloud(t)
	full := startFog(t, cloud, "fog-full", 1)
	// Fill the first supernode.
	p1, err := NewPlayerClient(PlayerConfig{PlayerID: 1, CloudAddr: cloud.Addr(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	waitFor(t, 2*time.Second, "first attach", func() bool {
		return full.Stats().Attached == 1
	})
	// The second supernode takes the overflow (sequential probing).
	spare := startFog(t, cloud, "fog-spare", 4)
	p2, err := NewPlayerClient(PlayerConfig{PlayerID: 2, CloudAddr: cloud.Addr(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	waitFor(t, 2*time.Second, "overflow attach", func() bool {
		return spare.Stats().Attached == 1
	})
	if full.Stats().Attached != 1 {
		t.Error("full supernode accepted beyond capacity")
	}
}

func TestCloudFallbackWithoutSupernodes(t *testing.T) {
	// With no fog at all, players stream from the cloud itself — the
	// paper's fallback path, and the bandwidth bill CloudFog eliminates.
	cloud := startCloud(t)
	player, err := NewPlayerClient(PlayerConfig{PlayerID: 1, CloudAddr: cloud.Addr(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "cloud-streamed frames", func() bool {
		return player.Stats().Frames >= 5
	})
	cs := cloud.Stats()
	if cs.FallbackPlayers != 1 {
		t.Errorf("fallback players = %d", cs.FallbackPlayers)
	}
	if cs.FallbackBits == 0 {
		t.Error("fallback egress not counted")
	}
}

func TestFogOffloadsCloudEgress(t *testing.T) {
	// With a supernode present, the cloud streams no fallback video at
	// all: the fog carries it (the core claim of the paper).
	cloud := startCloud(t)
	startFog(t, cloud, "fog-1", 4)
	player, err := NewPlayerClient(PlayerConfig{PlayerID: 2, CloudAddr: cloud.Addr(), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "frames", func() bool { return player.Stats().Frames >= 5 })
	if cs := cloud.Stats(); cs.FallbackBits != 0 || cs.FallbackPlayers != 0 {
		t.Errorf("cloud streamed video despite available fog: %+v", cs)
	}
}

func TestRateAdaptationSignalsSupernode(t *testing.T) {
	cloud := startCloud(t)
	fog := startFog(t, cloud, "fog-1", 4)
	_ = fog
	// A top-rung game over a loopback link: the measured delivery rate is
	// whatever the encoder emits, typically below the 1800 kbps target, so
	// the controller sheds levels — the signal must reach the supernode
	// without breaking the stream.
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 9, CloudAddr: cloud.Addr(),
		Game:  game.Catalog()[4],
		Adapt: true,
		Seed:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 8*time.Second, "frames with adaptation", func() bool {
		return player.Stats().Frames >= 20
	})
	// Whatever the adaptation decided, the stream must have stayed
	// decodable through any level switches.
	s := player.Stats()
	if s.DecodeErrors > s.Frames/5 {
		t.Errorf("stream broke across rate changes: %d errors / %d frames",
			s.DecodeErrors, s.Frames)
	}
	if s.Level < 1 || s.Level > game.NumQualityLevels {
		t.Errorf("level out of range: %d", s.Level)
	}
}

func TestPlayerLeaveFreesSlotAndAvatar(t *testing.T) {
	cloud := startCloud(t)
	fog := startFog(t, cloud, "fog-1", 1)
	player, err := NewPlayerClient(PlayerConfig{PlayerID: 4, CloudAddr: cloud.Addr(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "attach", func() bool { return fog.Stats().Attached == 1 })
	player.Close()
	waitFor(t, 2*time.Second, "slot release", func() bool { return fog.Stats().Attached == 0 })
	waitFor(t, 2*time.Second, "avatar despawn", func() bool { return cloud.Stats().Players == 0 })
	// The slot is reusable.
	p2, err := NewPlayerClient(PlayerConfig{PlayerID: 5, CloudAddr: cloud.Addr(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	waitFor(t, 2*time.Second, "reattach", func() bool { return fog.Stats().Attached == 1 })
}

func TestUpdateStreamIsCompact(t *testing.T) {
	// The point of CloudFog: the cloud's per-supernode update stream (Λ)
	// is far smaller than the video the supernode streams out.
	cloud := startCloud(t)
	fog := startFog(t, cloud, "fog-1", 4)
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 6, CloudAddr: cloud.Addr(),
		ActionInterval: 10 * time.Millisecond, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "traffic", func() bool {
		return fog.Stats().VideoBits > 0 && cloud.Stats().UpdateBits > 0
	})
	time.Sleep(300 * time.Millisecond)
	video := fog.Stats().VideoBits
	update := cloud.Stats().UpdateBits
	if update >= video {
		t.Errorf("update stream (%d bits) not smaller than video (%d bits)", update, video)
	}
}

func TestCloseIdempotent(t *testing.T) {
	cloud := startCloud(t)
	fog := startFog(t, cloud, "fog-1", 2)
	if err := fog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cloud.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cloud.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplePlayersMultipleFogs(t *testing.T) {
	cloud := startCloud(t)
	fogA := startFog(t, cloud, "fog-a", 2)
	fogB := startFog(t, cloud, "fog-b", 2)
	var players []*PlayerClient
	for i := int32(10); i < 14; i++ {
		p, err := NewPlayerClient(PlayerConfig{
			PlayerID: i, CloudAddr: cloud.Addr(),
			ActionInterval: 20 * time.Millisecond, Seed: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		players = append(players, p)
	}
	defer func() {
		for _, p := range players {
			p.Close()
		}
	}()
	waitFor(t, 5*time.Second, "all attached", func() bool {
		return fogA.Stats().Attached+fogB.Stats().Attached == 4
	})
	waitFor(t, 8*time.Second, "everyone streams", func() bool {
		for _, p := range players {
			if p.Stats().Frames < 5 {
				return false
			}
		}
		return true
	})
	if cloud.Stats().Players != 4 {
		t.Errorf("cloud players = %d", cloud.Stats().Players)
	}
}

func TestPlayerMigratesOnSupernodeFailure(t *testing.T) {
	cloud := startCloud(t)
	primary := startFog(t, cloud, "fog-primary", 4)
	backup := startFog(t, cloud, "fog-backup", 4)

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 21, CloudAddr: cloud.Addr(),
		ActionInterval: 10 * time.Millisecond, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	// The player attaches to exactly one fog node; find which.
	waitFor(t, 3*time.Second, "initial attach", func() bool {
		return primary.Stats().Attached+backup.Stats().Attached == 1
	})
	serving, spare := primary, backup
	if backup.Stats().Attached == 1 {
		serving, spare = backup, primary
	}
	waitFor(t, 3*time.Second, "first frames", func() bool {
		return player.Stats().Frames > 3
	})

	// Kill the serving supernode: the player must migrate to the spare
	// and keep decoding frames (§3.2.2 — no game state transfers, the
	// stream simply resumes).
	serving.Close()
	waitFor(t, 5*time.Second, "migration", func() bool {
		return player.Stats().Migrations >= 1 && spare.Stats().Attached == 1
	})
	framesAtMigration := player.Stats().Frames
	waitFor(t, 5*time.Second, "frames after migration", func() bool {
		return player.Stats().Frames > framesAtMigration+5
	})
	s := player.Stats()
	if s.DecodeErrors > s.Frames/5 {
		t.Errorf("stream did not resume cleanly: %d errors / %d frames",
			s.DecodeErrors, s.Frames)
	}
}

func TestPlayerFallsBackToCloudWhenAllSupernodesGone(t *testing.T) {
	cloud := startCloud(t)
	only := startFog(t, cloud, "fog-only", 4)
	player, err := NewPlayerClient(PlayerConfig{PlayerID: 22, CloudAddr: cloud.Addr(), Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 3*time.Second, "attach", func() bool { return only.Stats().Attached == 1 })
	only.Close()
	// The last candidate is the cloud itself: the migration lands there
	// and frames keep flowing (at cloud expense).
	waitFor(t, 5*time.Second, "cloud fallback migration", func() bool {
		s := player.Stats()
		return s.Migrations >= 1 && cloud.Stats().FallbackPlayers == 1
	})
	if err := player.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- chaos tests: deterministic fault injection via internal/faultnet ------

// startChaosCloud creates a cloud with fast heartbeats for eviction tests.
// The tolerance (interval x misses = 250ms) is short enough to evict dead
// links quickly but wide enough that race-detector scheduling pauses never
// evict a healthy fog — spurious evictions empty the candidate ladder and
// strand players on the cloud fallback.
func startChaosCloud(t *testing.T, wrap func(net.Conn) net.Conn) *CloudServer {
	t.Helper()
	cloud, err := NewCloudServer(CloudConfig{
		TickInterval:      5 * time.Millisecond,
		NPCs:              4,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   5,
		WriteTimeout:      200 * time.Millisecond,
		SendQueueLen:      4,
		WrapConn:          wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	return cloud
}

func TestCloudEvictsSilentSupernode(t *testing.T) {
	cloud := startChaosCloud(t, nil)
	inj := faultnet.NewInjector(faultnet.Profile{Seed: 100})
	fog, err := NewFogNode(FogConfig{
		Name: "fog-silent", CloudAddr: cloud.Addr(),
		Capacity: 4, FrameInterval: 10 * time.Millisecond,
		Dial: inj.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	waitFor(t, 2*time.Second, "registration", func() bool {
		return cloud.Stats().Supernodes == 1
	})
	// Blackhole the fog's cloud link: its heartbeat acks vanish, its reads
	// stall. Only the liveness protocol can notice this failure mode.
	inj.SetMode(faultnet.Blackhole)
	waitFor(t, 5*time.Second, "eviction", func() bool {
		s := cloud.Stats()
		return s.Supernodes == 0 && s.Resilience.Evictions >= 1
	})
	// The tick loop must have kept running throughout.
	before := cloud.Stats().Ticks
	waitFor(t, 2*time.Second, "ticks advancing post-eviction", func() bool {
		return cloud.Stats().Ticks > before+5
	})
}

func TestTickLoopSurvivesStalledSupernode(t *testing.T) {
	// The dangerous failure: a supernode that stops draining its TCP
	// stream. The bounded send queue and per-write deadlines must keep the
	// tick fan-out alive, then the stalled conn is torn down and the fog
	// reconnects with a fresh replica.
	inj := faultnet.NewInjector(faultnet.Profile{Seed: 101})
	// Wrap only the first accepted conn (the fog's registration): the
	// player's control conn and the fog's reconnect must stay healthy.
	// Heartbeat eviction is effectively disabled so the slow-consumer
	// defences (bounded queue + write deadline), not the liveness protocol,
	// must be what keeps the tick loop alive and tears the conn down.
	var accepted atomic.Int32
	cloud, err := NewCloudServer(CloudConfig{
		TickInterval:      5 * time.Millisecond,
		NPCs:              4,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   1 << 20,
		WriteTimeout:      200 * time.Millisecond,
		SendQueueLen:      4,
		WrapConn: func(c net.Conn) net.Conn {
			if accepted.Add(1) == 1 {
				return inj.WrapConn(c)
			}
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloud.Close() })
	fog, ferr := NewFogNode(FogConfig{
		Name: "fog-frozen", CloudAddr: cloud.Addr(),
		Capacity: 4, FrameInterval: 10 * time.Millisecond,
		ReconnectBackoff: 20 * time.Millisecond, Seed: 101,
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer fog.Close()
	// A player keeps the world changing so update batches flow every tick.
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 31, CloudAddr: cloud.Addr(),
		ActionInterval: 5 * time.Millisecond, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 2*time.Second, "streaming", func() bool {
		return player.Stats().Frames > 3
	})

	inj.SetMode(faultnet.Stall)
	before := cloud.Stats().Ticks
	// Ticks must keep advancing while the frozen supernode's queue fills.
	waitFor(t, 5*time.Second, "ticks advancing during stall", func() bool {
		return cloud.Stats().Ticks > before+20
	})
	waitFor(t, 5*time.Second, "queue drops counted", func() bool {
		return cloud.Stats().Resilience.SendQueueDrops > 0
	})
	// The stalled conn is torn down; the fog reconnects (new conns through
	// the wrap start healthy) and resyncs its replica.
	waitFor(t, 10*time.Second, "fog reconnects", func() bool {
		return fog.Stats().Resilience.Reconnects >= 1 && cloud.Stats().Supernodes == 1
	})
	tickAtResync := fog.Stats().ReplicaTick
	waitFor(t, 5*time.Second, "replica advances after resync", func() bool {
		return fog.Stats().ReplicaTick > tickAtResync
	})
}

func TestPlayerMigratesOnSilentStream(t *testing.T) {
	// A supernode that freezes without closing its sockets: frames simply
	// stop. The player's read deadline must notice and walk the ladder.
	cloud := startChaosCloud(t, nil)
	primary := startFog(t, cloud, "fog-primary", 4)

	inj := faultnet.NewInjector(faultnet.Profile{Seed: 102})
	primaryAddr := primary.StreamAddr()
	// While frozen, every conn to the primary (existing or new) is
	// blackholed — the box is down, re-dialing it cannot help.
	var frozen atomic.Bool
	dial := func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		if addr == primaryAddr {
			fc := inj.WrapConn(c)
			if frozen.Load() {
				fc.SetMode(faultnet.Blackhole)
			}
			return fc, nil
		}
		return c, nil
	}
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 41, CloudAddr: cloud.Addr(),
		ActionInterval:   10 * time.Millisecond,
		VideoReadTimeout: 100 * time.Millisecond,
		// Short handshake budget: probing the blackholed primary must fail
		// fast so the ladder reaches the backup promptly.
		DialTimeout: 200 * time.Millisecond,
		Seed:        41,
		Dial:        dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 2*time.Second, "attach to primary", func() bool {
		return primary.Stats().Attached == 1
	})
	// A backup joins after the player: only the candidate-update push can
	// teach the player about it.
	backup := startFog(t, cloud, "fog-backup", 4)
	waitFor(t, 2*time.Second, "candidate update received", func() bool {
		return player.Stats().CandidateUpdates >= 1
	})
	waitFor(t, 2*time.Second, "frames from primary", func() bool {
		return player.Stats().Frames > 3
	})

	// Freeze the stream: bytes stop, sockets stay open.
	frozen.Store(true)
	inj.SetMode(faultnet.Blackhole)
	waitFor(t, 5*time.Second, "migration to backup", func() bool {
		s := player.Stats()
		return s.Migrations >= 1 && backup.Stats().Attached == 1
	})
	s := player.Stats()
	if s.StallMs <= 0 {
		t.Errorf("stall time not accounted: %+v", s)
	}
	framesAtMigration := s.Frames
	waitFor(t, 5*time.Second, "frames resume", func() bool {
		return player.Stats().Frames > framesAtMigration+5
	})
	got := player.Stats()
	if got.FallbackTransitions != 0 {
		t.Errorf("player fell back to cloud despite live backup: %+v", got)
	}
	// The stall began at the last frame the primary delivered, so it
	// contains the whole detection window, not just the re-attach.
	if got.StallMs < 100 {
		t.Errorf("stall = %d ms, shorter than the 100 ms read timeout that detected it", got.StallMs)
	}
}

func TestFogReconnectsAfterConnReset(t *testing.T) {
	cloud := startChaosCloud(t, nil)
	inj := faultnet.NewInjector(faultnet.Profile{Seed: 103})
	fog, err := NewFogNode(FogConfig{
		Name: "fog-reset", CloudAddr: cloud.Addr(),
		Capacity: 4, FrameInterval: 10 * time.Millisecond,
		Dial:             inj.Dial,
		ReconnectBackoff: 20 * time.Millisecond,
		Seed:             103,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	waitFor(t, 2*time.Second, "registration", func() bool {
		return cloud.Stats().Supernodes == 1
	})
	// A player keeps the world changing so the replica has deltas to apply.
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 42, CloudAddr: cloud.Addr(),
		ActionInterval: 5 * time.Millisecond, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	oldID := fog.ID()

	// Abruptly reset the cloud link; the fog must redial (new conns start
	// healthy), re-register under a fresh ID, and resync its replica.
	inj.SetMode(faultnet.Reset)
	waitFor(t, 5*time.Second, "reconnect", func() bool {
		return fog.Stats().Resilience.Reconnects >= 1
	})
	waitFor(t, 2*time.Second, "re-registration", func() bool {
		return cloud.Stats().Supernodes == 1 && fog.ID() != oldID
	})
	if d := cloud.Stats().Resilience.Departures + cloud.Stats().Resilience.Evictions; d < 1 {
		t.Errorf("old registration never cleaned up: %+v", cloud.Stats().Resilience)
	}
	tick := fog.Stats().ReplicaTick
	waitFor(t, 5*time.Second, "replica advances after resync", func() bool {
		return fog.Stats().ReplicaTick > tick
	})
}

func TestChaosChurnPlayerSurvives(t *testing.T) {
	// The ISSUE acceptance scenario, seeded end to end: latency-injected
	// links, a fog node killed mid-stream, and the player must resume
	// frame delivery via migration or cloud fallback within bounded time
	// while the cloud tick loop never misses a beat.
	cloud := startChaosCloud(t, nil)
	inj := faultnet.NewInjector(faultnet.Profile{
		Seed:          7,
		AddedLatency:  2 * time.Millisecond,
		LatencyJitter: 3 * time.Millisecond,
	})
	fogA := startFog(t, cloud, "fog-a", 4)
	fogB := startFog(t, cloud, "fog-b", 4)
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 51, CloudAddr: cloud.Addr(),
		ActionInterval:   10 * time.Millisecond,
		VideoReadTimeout: 200 * time.Millisecond,
		Seed:             7,
		Dial:             inj.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 3*time.Second, "initial attach", func() bool {
		return fogA.Stats().Attached+fogB.Stats().Attached == 1
	})
	serving := fogA
	if fogB.Stats().Attached == 1 {
		serving = fogB
	}
	waitFor(t, 3*time.Second, "first frames", func() bool {
		return player.Stats().Frames > 3
	})

	ticksBefore := cloud.Stats().Ticks
	serving.Close()
	waitFor(t, 5*time.Second, "migration", func() bool {
		return player.Stats().Migrations >= 1
	})
	framesAtMigration := player.Stats().Frames
	waitFor(t, 5*time.Second, "frames resume", func() bool {
		return player.Stats().Frames > framesAtMigration+5
	})
	// The dead supernode never blocked the cloud: the tick loop keeps
	// advancing right through the churn.
	waitFor(t, 2*time.Second, "ticks advancing through churn", func() bool {
		return cloud.Stats().Ticks > ticksBefore+20
	})
	s := player.Stats()
	if s.DecodeErrors > s.Frames/5 {
		t.Errorf("stream did not resume cleanly: %d errors / %d frames",
			s.DecodeErrors, s.Frames)
	}
}

// --- selection control plane: ranked ladders and QoE feedback --------------

func TestBuildLadderFiltersAndRanks(t *testing.T) {
	cands := []protocol.CandidateInfo{
		{Addr: "a:1", Load: 4, Capacity: 4, MeasuredRTTMs: -1, Score: 0.9}, // full
		{Addr: "b:1", Load: 0, Capacity: 4, MeasuredRTTMs: -1, Score: 0.2},
		{Addr: "c:1", Load: 0, Capacity: 4, MeasuredRTTMs: -1, Score: 0.8},
		{Addr: "d:1", Load: 0, Capacity: 4, MeasuredRTTMs: -1, Score: 0.5}, // too far
	}
	rtts := map[string]float64{"d:1": 500}
	r := rng.New(1).SplitNamed("ladder-rank")
	got := buildLadder(cands, rtts, selection.PolicyReputation, 200, "cloud:1", r)
	want := []string{"c:1", "b:1", "a:1", "cloud:1"}
	if len(got) != len(want) {
		t.Fatalf("ladder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v (RTT filter, score order, full-last, cloud tail)", got, want)
		}
	}
}

func TestLadderPrefersRankedOverAlphabetical(t *testing.T) {
	// Reserve two ephemeral ports so the OVERLOADED supernode gets the
	// alphabetically-smaller address: the sort.Strings ladder this PR
	// replaced would probe it first; the ranked ladder must not.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lowAddr, highAddr := ln1.Addr().String(), ln2.Addr().String()
	if lowAddr > highAddr {
		lowAddr, highAddr = highAddr, lowAddr
	}
	ln1.Close()
	ln2.Close()

	cloud := startChaosCloud(t, nil) // fast heartbeats: load reports flow quickly
	overloaded, err := NewFogNode(FogConfig{
		Name: "fog-overloaded", CloudAddr: cloud.Addr(),
		StreamAddr: lowAddr, Capacity: 1,
		FrameInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { overloaded.Close() })

	// Player 1 fills the only supernode.
	p1, err := NewPlayerClient(PlayerConfig{PlayerID: 61, CloudAddr: cloud.Addr(), Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	waitFor(t, 2*time.Second, "first attach", func() bool {
		return overloaded.Stats().Attached == 1
	})

	spare, err := NewFogNode(FogConfig{
		Name: "fog-spare", CloudAddr: cloud.Addr(),
		StreamAddr: highAddr, Capacity: 4,
		FrameInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spare.Close() })

	// Wait until a heartbeat ack taught the cloud the first supernode is
	// full, and the ranked ladder leads with the spare.
	waitFor(t, 3*time.Second, "ladder re-ranked on load", func() bool {
		cands := cloud.Candidates()
		return len(cands) == 2 && cands[0].Addr == highAddr && cands[1].Load >= 1
	})

	probesBefore := overloaded.Stats().Probes
	p2, err := NewPlayerClient(PlayerConfig{PlayerID: 62, CloudAddr: cloud.Addr(), Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	waitFor(t, 2*time.Second, "second attach on spare", func() bool {
		return spare.Stats().Attached == 1
	})
	// The ranked ladder sent player 2 straight to the spare: the full,
	// alphabetically-first supernode was never even probed.
	if got := overloaded.Stats().Probes; got != probesBefore {
		t.Errorf("overloaded supernode probed %d more times despite ranked ladder",
			got-probesBefore)
	}
}

func TestStallReportsDemoteSupernode(t *testing.T) {
	// A supernode that freezes mid-stream gets reported by the migrating
	// player, and the cloud's reputation book pushes it below the healthy
	// spare in every subsequent ladder.
	cloud := startChaosCloud(t, nil)
	faulty := startFog(t, cloud, "fog-faulty", 4)
	faultyAddr := faulty.StreamAddr()

	inj := faultnet.NewInjector(faultnet.Profile{Seed: 104})
	var frozen atomic.Bool
	dial := func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		if addr == faultyAddr {
			fc := inj.WrapConn(c)
			if frozen.Load() {
				fc.SetMode(faultnet.Blackhole)
			}
			return fc, nil
		}
		return c, nil
	}
	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 71, CloudAddr: cloud.Addr(),
		ActionInterval:   10 * time.Millisecond,
		VideoReadTimeout: 100 * time.Millisecond,
		DialTimeout:      200 * time.Millisecond,
		QoEInterval:      -1, // only failure reports: keep the book unambiguous
		Seed:             71,
		Dial:             dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()
	waitFor(t, 2*time.Second, "attach to faulty", func() bool {
		return faulty.Stats().Attached == 1
	})
	healthy := startFog(t, cloud, "fog-healthy", 4)
	waitFor(t, 2*time.Second, "candidate update received", func() bool {
		return player.Stats().CandidateUpdates >= 1
	})
	waitFor(t, 2*time.Second, "frames from faulty", func() bool {
		return player.Stats().Frames > 3
	})

	frozen.Store(true)
	inj.SetMode(faultnet.Blackhole)
	waitFor(t, 5*time.Second, "migration to healthy spare", func() bool {
		return player.Stats().Migrations >= 1 && healthy.Stats().Attached == 1
	})
	// The stall report reached the book...
	waitFor(t, 2*time.Second, "QoE report absorbed", func() bool {
		return cloud.Stats().Resilience.QoEReports >= 1
	})
	if got := player.Stats().QoEReports; got < 1 {
		t.Errorf("player sent %d QoE reports, want >= 1", got)
	}
	// ...and demoted the faulty supernode below the healthy one (score 0
	// vs the unknown prior), whatever the addresses sort like.
	cands := cloud.Candidates()
	if len(cands) != 2 {
		t.Fatalf("ladder has %d candidates, want 2", len(cands))
	}
	if cands[0].Addr != healthy.StreamAddr() {
		t.Errorf("ladder leads with the stalled supernode: %+v", cands)
	}
	if !(cands[1].Score < cands[0].Score) {
		t.Errorf("stalled supernode not demoted by score: %+v", cands)
	}
}

// An update batch that does not decode is skipped, but not silently: the
// supernode counts it, keeps its replica as it was, and applies the next
// good batch. The cloud here is a raw listener, so the torn bytes are exact.
func TestFogCountsUndecodableUpdateBatches(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, aerr := ln.Accept()
		if aerr != nil {
			close(accepted)
			return
		}
		if typ, _, rerr := protocol.ReadMessage(conn); rerr != nil || typ != protocol.MsgSupernodeHello {
			t.Errorf("hello: type %d, err %v", typ, rerr)
		}
		npc := virtualworld.Entity{ID: 1, Kind: virtualworld.KindNPC, Owner: -1, X: 50, Y: 50, HP: 100, Version: 1}
		welcome := protocol.SupernodeWelcome{SupernodeID: 1, Epoch: 1, Snapshot: virtualworld.Snapshot{
			Tick: 5, Width: 400, Height: 300, Entities: []virtualworld.Entity{npc}}}
		if werr := protocol.WriteMessage(conn, protocol.MsgSupernodeWelcome, welcome.Marshal()); werr != nil {
			t.Errorf("welcome: %v", werr)
		}
		accepted <- conn
	}()
	fog, err := NewFogNode(FogConfig{Name: "fog-torn", CloudAddr: ln.Addr().String(), Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	conn, ok := <-accepted
	if !ok {
		t.Fatal("the supernode never connected")
	}
	defer conn.Close()

	moved := virtualworld.Entity{ID: 1, Kind: virtualworld.KindNPC, Owner: -1, X: 60, Y: 50, HP: 100, Version: 2}
	deltas := []virtualworld.Delta{{ID: 1, Entity: moved}}
	send := func(typ protocol.MsgType, payload []byte) {
		t.Helper()
		if err := protocol.WriteMessage(conn, typ, payload); err != nil {
			t.Fatal(err)
		}
	}
	good := protocol.UpdateBatch{Epoch: 1, Tick: 6, Deltas: deltas}.AppendTo(nil)
	send(protocol.MsgUpdateBatch, good[:len(good)-1])
	waitFor(t, 5*time.Second, "the torn update batch counted", func() bool { return fog.Stats().UpdateDecodeErrors == 1 })
	if st := fog.Stats(); st.ReplicaTick != 5 || st.AppliedDeltas != 0 {
		t.Errorf("a torn batch moved the replica to tick %d, %d deltas applied", st.ReplicaTick, st.AppliedDeltas)
	}
	send(protocol.MsgUpdateBatch, good)
	waitFor(t, 5*time.Second, "the good batch applied", func() bool { return fog.Stats().ReplicaTick == 6 })
	cell := protocol.CellBatch{Epoch: 1, Tick: 7, Cell: virtualworld.CellNone, Deltas: deltas}.AppendTo(nil)
	send(protocol.MsgCellBatch, append(cell, 0))
	waitFor(t, 5*time.Second, "the torn cell batch counted", func() bool { return fog.Stats().UpdateDecodeErrors == 2 })
	if st := fog.Stats(); st.ReplicaTick != 6 || st.AppliedDeltas != 1 || st.CellBatches != 0 {
		t.Errorf("after both torn batches: tick %d, %d deltas applied, %d cell batches; want 6, 1, 0", st.ReplicaTick, st.AppliedDeltas, st.CellBatches)
	}
}
