package fognet

import (
	"maps"
	"math"
	"math/bits"
	"net"
	"testing"
	"time"

	"cloudfog/internal/faultnet"
	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// startAoIFog is startFog with interest management on.
func startAoIFog(t *testing.T, cloud *CloudServer, name string, capacity int) *FogNode {
	t.Helper()
	fog, err := NewFogNode(FogConfig{
		Name:          name,
		CloudAddr:     cloud.Addr(),
		Capacity:      capacity,
		FrameInterval: 10 * time.Millisecond,
		AoI:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fog.Close() })
	return fog
}

// subscribed is how many cells is holds.
func subscribed(is *interestSet) int {
	n := 0
	for _, w := range is.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// cloudInterestCells is how many cells the cloud's interest sets hold, over
// every supernode.
func cloudInterestCells(c *CloudServer) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, sn := range c.supernodes {
		if sn.interest != nil {
			n += subscribed(sn.interest)
		}
	}
	return n
}

// TestAoIEndToEndStreaming runs the full loop over the interest-managed
// stream: the fog names its player, the cloud switches it to per-cell
// batches (with a keyframe per gained cell), and the player still gets
// frames that track the world.
func TestAoIEndToEndStreaming(t *testing.T) {
	cloud := startCloud(t)
	fog := startAoIFog(t, cloud, "fog-aoi", 4)

	// Even before any player, the fog's (empty) report moves it off the
	// full-world stream.
	waitFor(t, 2*time.Second, "AoI switchover", func() bool {
		return cloud.Stats().AoISupernodes == 1
	})

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

	waitFor(t, 5*time.Second, "decoded frames", func() bool {
		s := player.Stats()
		return s.Frames >= 10 && s.LastTick > 0
	})
	fs := fog.Stats()
	if fs.InterestUpdatesSent == 0 {
		t.Error("no interest updates sent")
	}
	if cloudInterestCells(cloud) == 0 {
		t.Error("empty interest set with an attached player")
	}
	if fs.CellBatches == 0 {
		t.Error("no cell batches applied")
	}
	if fs.KeyframesApplied == 0 {
		t.Error("no cell-enter keyframes applied")
	}
	cs := cloud.Stats()
	if cs.InterestUpdates == 0 || cs.KeyframeCells == 0 {
		t.Errorf("cloud AoI counters: %+v", cs)
	}
	if cs.UpdateBits == 0 {
		t.Error("no update egress counted for cell batches")
	}
}

// TestAoIReplicaTracksAvatar asserts the partial view is exact where it
// matters: the fog's replica position for an attached, moving player
// converges to the cloud's authoritative one.
func TestAoIReplicaTracksAvatar(t *testing.T) {
	cloud := startCloud(t)
	fog := startAoIFog(t, cloud, "fog-aoi", 4)

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       9,
		CloudAddr:      cloud.Addr(),
		ActionInterval: 10 * time.Millisecond,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	waitFor(t, 5*time.Second, "replica tracks the avatar", func() bool {
		ax, ay, ok := cloudAvatarPos(cloud, 9)
		if !ok {
			return false
		}
		fog.mu.Lock()
		ra, rok := fog.replica.Avatar(9)
		fog.mu.Unlock()
		// Within a couple of ticks of movement (MoveSpeed 8/tick).
		return rok && math.Abs(ra.X-ax) < 32 && math.Abs(ra.Y-ay) < 32
	})
}

// cloudAvatarPos reads a player's authoritative avatar position.
func cloudAvatarPos(c *CloudServer, player int) (x, y float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.world.Avatar(player)
	return a.X, a.Y, ok
}

// decodeCellBatchInto round-trips a cell batch through the wire encoding
// before applying it, so parity covers the codec as well as the bucketing.
func applyCellBatchWire(t testing.TB, r *virtualworld.Replica, cb protocol.CellBatch) {
	t.Helper()
	var got protocol.CellBatch
	if err := protocol.DecodeCellBatch(cb.AppendTo(nil), &got); err != nil {
		t.Fatalf("cell batch round trip: %v", err)
	}
	if got.Keyframe {
		r.ApplyCellKeyframe(got.Tick, got.Cell, got.Deltas)
	} else {
		r.Apply(got.Tick, got.Deltas)
	}
}

// FuzzAoIPartitionParity is the fan-out equivalence property: for any
// delta stream, the union of the per-cell batches (global bucket plus
// every dirty cell, i.e. a subscriber interested in everything) applied
// to a replica produces exactly the same state as the legacy full-world
// batch.
func FuzzAoIPartitionParity(f *testing.F) {
	f.Add(uint64(1), uint(40), uint(8))
	f.Add(uint64(7), uint(0), uint(0))
	f.Add(uint64(99), uint(200), uint(3))
	f.Add(uint64(12345), uint(1), uint(1))
	f.Fuzz(func(t *testing.T, seed uint64, nDeltas, nSession uint) {
		if nDeltas > 2048 {
			nDeltas = nDeltas % 2048
		}
		if nSession > nDeltas {
			nSession = nSession % (nDeltas + 1)
		}
		const width, height = 1000, 700
		geo := virtualworld.Geometry(width, height, virtualworld.DefaultCellSize)
		r := rng.New(seed).SplitNamed("aoi-parity")

		// A shared base population both replicas start from.
		base := virtualworld.NewReplica(width, height)
		full := virtualworld.NewReplica(width, height)
		var seedDeltas []virtualworld.Delta
		for i := 0; i < 32; i++ {
			id := virtualworld.EntityID(i + 1)
			seedDeltas = append(seedDeltas, virtualworld.Delta{ID: id, Entity: virtualworld.Entity{
				ID: id, Kind: virtualworld.KindNPC, Owner: -1,
				X: r.Float64() * width, Y: r.Float64() * height, HP: 50, Version: 1,
			}})
		}
		base.Apply(1, seedDeltas)
		full.Apply(1, seedDeltas)

		// One tick's worth of deltas: the first nSession are session events
		// (spawns/removals without positions guaranteed meaningful), the
		// rest positioned updates; a sprinkling of removals throughout.
		// The generator keeps the real per-tick invariant — an entity is
		// either removed or updated within one tick, never both — because
		// the AoI partition only preserves ordering across buckets per
		// entity, not between a removal and a same-tick resurrection (a
		// stream Step cannot emit).
		const (
			stateUpdated = 1
			stateRemoved = 2
		)
		idState := make(map[virtualworld.EntityID]byte)
		deltas := make([]virtualworld.Delta, 0, nDeltas)
		for i := uint(0); i < nDeltas; i++ {
			id := virtualworld.EntityID(r.Intn(64) + 1)
			if r.Float64() < 0.15 && idState[id] == 0 {
				idState[id] = stateRemoved
				deltas = append(deltas, virtualworld.Delta{ID: id, Removed: true})
				continue
			}
			if idState[id] == stateRemoved {
				continue
			}
			idState[id] = stateUpdated
			deltas = append(deltas, virtualworld.Delta{ID: id, Entity: virtualworld.Entity{
				ID: id, Kind: virtualworld.KindNPC, Owner: -1,
				X: r.Float64() * width, Y: r.Float64() * height,
				HP: int16(r.Intn(100)), Version: uint32(i) + 2,
			}})
		}

		var plan aoiPlan
		plan.build(geo, deltas, int(nSession))

		// Full-world replica applies the legacy batch.
		full.Apply(2, deltas)

		// AoI replica applies the partition: global bucket first (session
		// events and removals), then each dirty cell, as a fully-subscribed
		// supernode would receive them.
		applyCellBatchWire(t, base, protocol.CellBatch{
			Tick: 2, Cell: virtualworld.CellNone, Deltas: plan.global})
		for i := 0; i < plan.numDirty(); i++ {
			cell, cd := plan.cellDeltas(i)
			applyCellBatchWire(t, base, protocol.CellBatch{Tick: 2, Cell: cell, Deltas: cd})
		}

		if got, want := base.Snapshot(), full.Snapshot(); !got.Equal(want) {
			t.Fatalf("partition parity broken (seed=%d n=%d s=%d):\naoi:  %+v\nfull: %+v",
				seed, nDeltas, nSession, got, want)
		}
	})
}

// TestAoIInterestSurvivesBlackhole is the chaos case: the fog's cloud link
// blackholes mid-session while the player keeps moving, so the cell
// batches of the cells the avatar walks into vanish in flight. After the
// fog reconnects, AoI must rearm from scratch — fresh report, fresh
// keyframes — and the replica must converge back to the authoritative
// avatar position instead of serving stale-cell state.
func TestAoIInterestSurvivesBlackhole(t *testing.T) {
	cloud := startChaosCloud(t, nil)
	inj := faultnet.NewInjector(faultnet.Profile{Seed: 200})
	fog, err := NewFogNode(FogConfig{
		Name: "fog-aoi-chaos", CloudAddr: cloud.Addr(),
		Capacity: 4, FrameInterval: 10 * time.Millisecond,
		AoI:              true,
		Dial:             inj.Dial,
		ReconnectBackoff: 20 * time.Millisecond,
		WriteTimeout:     200 * time.Millisecond,
		Seed:             200,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	waitFor(t, 2*time.Second, "AoI registration", func() bool {
		return cloud.Stats().AoISupernodes == 1
	})

	player, perr := NewPlayerClient(PlayerConfig{
		PlayerID: 41, CloudAddr: cloud.Addr(),
		ActionInterval: 5 * time.Millisecond, Seed: 41,
	})
	if perr != nil {
		t.Fatal(perr)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "streaming with a footprint", func() bool {
		return cloudInterestCells(cloud) > 0 && fog.Stats().KeyframesApplied > 0 && player.Stats().Frames > 3
	})
	sentBefore := fog.Stats().InterestUpdatesSent
	keyframesBefore := fog.Stats().KeyframesApplied
	keyCellsBefore := cloud.Stats().KeyframeCells

	// Blackhole the fog↔cloud link. The player keeps acting (its control
	// connection is separate), so the authoritative avatar walks away from
	// whatever cells the cloud last heard the fog wanted.
	// Held well past the cloud's eviction horizon (5 misses × 50 ms plus
	// the tick that acts on them, 300 ms at the latest): healed exactly on
	// it, a late heartbeat tick leaves the fog registered and nothing to
	// reconnect.
	inj.SetMode(faultnet.Blackhole)
	time.Sleep(450 * time.Millisecond)
	inj.SetMode(faultnet.Healthy)

	// The fog reconnects (eviction or dead-conn detection), rearms AoI,
	// re-reports, and gets keyframes for the re-entered cells.
	waitFor(t, 10*time.Second, "AoI rearmed after reconnect", func() bool {
		fs := fog.Stats()
		return fs.Resilience.Reconnects >= 1 &&
			fs.InterestUpdatesSent > sentBefore &&
			fs.KeyframesApplied > keyframesBefore &&
			cloudInterestCells(cloud) > 0 && cloud.Stats().KeyframeCells > keyCellsBefore
	})
	// No stale-cell state reaches the player: the replica's avatar view
	// reconverges to the authoritative position.
	waitFor(t, 5*time.Second, "replica reconverged", func() bool {
		ax, ay, found := cloudAvatarPos(cloud, 41)
		if !found {
			return false
		}
		fog.mu.Lock()
		ra, rok := fog.replica.Avatar(41)
		fog.mu.Unlock()
		return rok && math.Abs(ra.X-ax) < 32 && math.Abs(ra.Y-ay) < 32
	})
}

// TestAoIBackCompat pins the opt-in contract: a fog that never reports
// interest keeps receiving the legacy full-world stream, byte for byte the
// same message type as before the AoI layer existed.
func TestAoIBackCompat(t *testing.T) {
	cloud := startCloud(t)
	legacy := startFog(t, cloud, "fog-legacy", 4)
	aoi := startAoIFog(t, cloud, "fog-aoi", 4)

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 11, CloudAddr: cloud.Addr(),
		ActionInterval: 10 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	// The legacy fog tracks every tick. The AoI fog has no players, so its
	// footprint is empty and it receives only the global bucket — the
	// player's join (a session delta) is broadcast to it, and that is all
	// the traffic an idle subscriber costs.
	waitFor(t, 5*time.Second, "replicas see their streams", func() bool {
		return legacy.Stats().ReplicaTick > 10 && aoi.Stats().CellBatches >= 1
	})
	cs := cloud.Stats()
	if cs.Supernodes != 2 || cs.AoISupernodes != 1 {
		t.Errorf("supernode split: %+v", cs)
	}
	ls := legacy.Stats()
	if ls.CellBatches != 0 || ls.InterestUpdatesSent != 0 {
		t.Errorf("legacy fog saw AoI traffic: %+v", ls)
	}
	// Both replicas track the same world; the legacy one applies full
	// batches, so its applied-delta counter keeps climbing.
	if ls.AppliedDeltas == 0 {
		t.Error("legacy fog applied nothing")
	}
}

// startInterestSink registers a supernode at the protocol level, names
// players in one interest report, and from then on only reads: it returns
// every cell batch it receives, in order.
func startInterestSink(t *testing.T, cloud *CloudServer, players ...int32) <-chan protocol.CellBatch {
	t.Helper()
	conn, err := net.DialTimeout("tcp", cloud.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := protocol.SupernodeHello{Name: "aoi-sink", Capacity: 1, StreamAddr: "127.0.0.1:1"}
	if err := protocol.WriteMessage(conn, protocol.MsgSupernodeHello, hello.Marshal()); err != nil {
		t.Fatal(err)
	}
	fr := protocol.NewFrameReader(conn)
	if typ, _, err := fr.Next(); err != nil || typ != protocol.MsgSupernodeWelcome {
		t.Fatalf("welcome: type %d, err %v", typ, err)
	}
	iu := protocol.InterestUpdate{Gen: 1, CellSize: virtualworld.DefaultCellSize, Players: players}
	if err := protocol.WriteMessage(conn, protocol.MsgInterestUpdate, iu.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	out := make(chan protocol.CellBatch, 4096) // every batch a test can produce: the reader never blocks
	go func() {
		defer close(out)
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				return // closed by the cleanup
			}
			if typ != protocol.MsgCellBatch {
				continue
			}
			var cb protocol.CellBatch
			if err := protocol.DecodeCellBatch(payload, &cb); err != nil {
				t.Errorf("cell batch does not decode: %v", err)
				return
			}
			out <- cb
		}
	}()
	return out
}

// TestInterestFollowsAvatarWithoutReports pins where interest is decided: a
// supernode names its player once, and from then on the cloud's tick loop
// moves the subscription with the authoritative avatar. Every cell that
// comes within viewport + margin of it arrives as a keyframe stamped with
// the tick of the move that brought it into range, and no other does.
func TestInterestFollowsAvatarWithoutReports(t *testing.T) {
	const id, y = 7, 500.0
	cloud := startPacedCloud(t, 50*time.Millisecond)
	player, _ := joinRaw(t, cloud, id, 200, y)
	sink := startInterestSink(t, cloud, id)

	keyed := make(map[uint32]uint64)      // cell → tick of its keyframe
	avatar := make(map[uint64]float64)    // tick → the avatar's x in it
	var last virtualworld.Entity          // the avatar as last seen
	awaitAvatar := func(version uint32) { // reads batches until the avatar reaches version
		for last.Version < version {
			var cb protocol.CellBatch
			select {
			case b, ok := <-sink:
				if !ok {
					t.Fatal("sink closed")
				}
				cb = b
			case <-time.After(5 * time.Second):
				t.Fatalf("no cell batch carries avatar version %d (last %+v)", version, last)
			}
			if cb.Keyframe {
				if tick, dup := keyed[cb.Cell]; dup {
					t.Errorf("cell %d keyframed in tick %d and again in %d", cb.Cell, tick, cb.Tick)
				}
				keyed[cb.Cell] = cb.Tick
			}
			for _, d := range cb.Deltas {
				if e := d.Entity; !d.Removed && e.Kind == virtualworld.KindAvatar && e.Owner == id {
					avatar[cb.Tick], last = e.X, e
				}
			}
		}
	}
	awaitAvatar(1) // the report's keyframes carry it
	for step := 0; step < 40; step++ {
		move := protocol.ActionMsg{Action: virtualworld.Action{Player: id, Kind: virtualworld.ActMove, TargetX: 1000, TargetY: y}}
		if err := protocol.WriteMessage(player.conn, protocol.MsgAction, move.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		awaitAvatar(last.Version + 1)
	}

	// A straight walk never re-enters a cell, so a cell is gained in the
	// first tick whose enter rect around the avatar covers it.
	geo := virtualworld.Geometry(virtualworld.DefaultWidth, virtualworld.DefaultHeight, virtualworld.DefaultCellSize)
	want := make(map[uint32]uint64)
	visited := make(map[uint32]bool)
	for tick, x := range avatar {
		visited[geo.CellOf(x, y)] = true
		hw, hh := render.ViewHalfWidth+aoiMargin, render.ViewHalfHeight+aoiMargin
		for _, c := range geo.AppendCellsInRect(nil, x-hw, y-hh, x+hw, y+hh) {
			if first, seen := want[c]; !seen || tick < first {
				want[c] = tick
			}
		}
	}
	if len(visited) < 5 {
		t.Fatalf("the avatar walked through %d cells, want at least 5", len(visited))
	}
	if !maps.Equal(keyed, want) {
		t.Errorf("keyframes (cell → tick) %v, want %v", keyed, want)
	}
	if n := cloud.Stats().InterestUpdates; n != 1 {
		t.Errorf("the cloud accepted %d interest reports, want the one", n)
	}
}

// TestInterestHysteresis pins the enter/keep rule on the tick path: an
// avatar oscillating ±aoiMargin/2 around a cell boundary keyframes each
// cell at its first entry only; walking past viewport + 2×margin drops a
// cell, and walking back keyframes it exactly once more.
func TestInterestHysteresis(t *testing.T) {
	const y, mid = 512.0, 320.0 // mid is a cell boundary
	w := virtualworld.New(virtualworld.DefaultWidth, virtualworld.DefaultHeight)
	w.SpawnAvatar(1, mid-aoiMargin/2, y)
	geo := w.Grid().Geom()
	f := newFanoutFixture(geo, nil, []*interestSet{nil})
	f.serve(w)
	sn := f.report(t, 0, 1, 1)
	keyed := make(map[uint32]int) // cell → keyframes sent
	count := func() {
		for _, k := range f.s.keyPlan {
			keyed[k.cell]++
		}
	}
	f.s.tickOnce(true) // the report's tick: every cell in range is gained
	f.flushAll(t)
	count()
	if len(keyed) == 0 || sn.interest == nil {
		t.Fatal("the report gained no cell")
	}
	step := func(x float64) {
		f.inputTick(t, virtualworld.Action{Player: 1, Kind: virtualworld.ActMove, TargetX: x, TargetY: y})
		count()
	}
	avatarX := func() float64 {
		a, _ := w.Avatar(1)
		return a.X
	}

	target, grewAt := mid+aoiMargin/2, -1
	for i := 0; i < 40; i++ {
		before := f.s.stats.KeyframeCells
		step(target)
		if f.s.stats.KeyframeCells != before {
			if i >= 8 { // the first swing takes 8 ticks of MoveSpeed
				t.Errorf("tick %d of the oscillation keyframed %d cells after the first swing", i, f.s.stats.KeyframeCells-before)
			}
			grewAt = i
		}
		if avatarX() == target {
			target = 2*mid - target
		}
	}
	if grewAt < 0 {
		t.Error("the oscillation never entered a new cell")
	}
	for c, n := range keyed {
		if n != 1 {
			t.Errorf("cell %d keyframed %d times while oscillating", c, n)
		}
	}

	walkTo := func(x float64) {
		for i := 0; avatarX() != x; i++ {
			if i == 100 {
				t.Fatalf("avatar stuck at x=%v on its way to %v", avatarX(), x)
			}
			step(x)
		}
	}
	left := geo.CellOf(mid-3*aoiMargin-1, y) // held at both ends of the swing, by keep only at the far one
	walkTo(600)
	if sn.interest.has(left) {
		t.Errorf("cell %d still subscribed beyond viewport + 2×margin", left)
	}
	walkTo(mid - aoiMargin/2)
	if !sn.interest.has(left) || keyed[left] != 2 {
		t.Errorf("cell %d: subscribed %v after walking back, keyframed %d times, want true and 2", left, sn.interest.has(left), keyed[left])
	}
}
