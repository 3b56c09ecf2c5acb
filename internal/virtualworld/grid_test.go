package virtualworld

import (
	"math/rand"
	"testing"
)

func TestGeometryCellOfClamps(t *testing.T) {
	geo := Geometry(DefaultWidth, DefaultHeight, DefaultCellSize)
	if geo.Cols != 16 || geo.Rows != 16 {
		t.Fatalf("geometry = %dx%d, want 16x16", geo.Cols, geo.Rows)
	}
	if c := geo.CellOf(0, 0); c != 0 {
		t.Fatalf("CellOf(0,0) = %d, want 0", c)
	}
	// The world's max edge (reachable via clampPos) folds into the last
	// cell rather than indexing out of range.
	if c := geo.CellOf(DefaultWidth, DefaultHeight); c != uint32(geo.NumCells()-1) {
		t.Fatalf("CellOf(max) = %d, want %d", c, geo.NumCells()-1)
	}
	if c := geo.CellOf(-5, -5); c != 0 {
		t.Fatalf("CellOf(negative) = %d, want 0", c)
	}
}

func TestGeometryCellRectPartitionsWorld(t *testing.T) {
	geo := Geometry(1000, 700, 64) // non-divisible: last col/row absorb the remainder
	for c := uint32(0); c < uint32(geo.NumCells()); c++ {
		minX, minY, maxX, maxY := geo.CellRect(c)
		if maxX <= minX || maxY <= minY {
			t.Fatalf("cell %d: degenerate rect [%g,%g)x[%g,%g)", c, minX, maxX, minY, maxY)
		}
		// Every interior point of the rect maps back to the cell.
		if got := geo.CellOf((minX+maxX)/2, (minY+maxY)/2); got != c {
			t.Fatalf("cell %d: center maps to %d", c, got)
		}
	}
	_, _, maxX, maxY := geo.CellRect(uint32(geo.NumCells() - 1))
	if maxX != 1000 || maxY != 700 {
		t.Fatalf("last cell rect ends at (%g,%g), want world edge (1000,700)", maxX, maxY)
	}
}

func TestGeometryAppendCellsInRect(t *testing.T) {
	geo := Geometry(DefaultWidth, DefaultHeight, DefaultCellSize)
	cells := geo.AppendCellsInRect(nil, 0, 0, DefaultWidth, DefaultHeight)
	if len(cells) != geo.NumCells() {
		t.Fatalf("full-world rect yields %d cells, want %d", len(cells), geo.NumCells())
	}
	for i := 1; i < len(cells); i++ {
		if cells[i] <= cells[i-1] {
			t.Fatalf("cells not ascending at %d: %d <= %d", i, cells[i], cells[i-1])
		}
	}
	// A sub-cell rect straddling a corner touches exactly the 4 cells
	// around it.
	cells = geo.AppendCellsInRect(nil, 60, 60, 70, 70)
	if len(cells) != 4 {
		t.Fatalf("corner rect yields %d cells, want 4 (%v)", len(cells), cells)
	}
	// An off-world rect clamps instead of indexing out of range.
	cells = geo.AppendCellsInRect(nil, -100, -100, -50, 2000)
	if len(cells) != geo.Rows {
		t.Fatalf("clamped rect yields %d cells, want one column of %d", len(cells), geo.Rows)
	}
}

// rebuiltGrid indexes a snapshot's entities from scratch — the reference
// the incrementally maintained grid must match bit-for-bit.
func rebuiltGrid(s Snapshot) *Grid {
	g := NewGrid(Geometry(s.Width, s.Height, DefaultCellSize))
	for _, e := range s.Entities {
		g.Insert(e.ID, e.X, e.Y)
	}
	return g
}

// TestGridIncrementalMatchesRebuild drives a world through every mutation
// path — spawns, moves, combat kills, pickups, respawns, logouts — and
// checks after each tick that the incrementally maintained index equals a
// from-scratch rebuild. A replica fed the same ticks' deltas, as a fog is,
// must hold the same state and the same index, tick by tick.
func TestGridIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := New(0, 0)
	for p := 0; p < 12; p++ {
		w.SpawnAvatar(p, rng.Float64()*DefaultWidth, rng.Float64()*DefaultHeight)
	}
	var npcs, items []EntityID
	for i := 0; i < 40; i++ {
		npcs = append(npcs, w.SpawnNPC(rng.Float64()*DefaultWidth, rng.Float64()*DefaultHeight).ID)
		items = append(items, w.SpawnItem(rng.Float64()*DefaultWidth, rng.Float64()*DefaultHeight).ID)
	}
	rep := NewReplica(0, 0)
	rep.Seed(w.Snapshot())
	for tick := 0; tick < 200; tick++ {
		var actions []Action
		for p := 0; p < 12; p++ {
			switch rng.Intn(4) {
			case 0:
				actions = append(actions, Action{Player: p, Kind: ActMove,
					TargetX: rng.Float64() * DefaultWidth, TargetY: rng.Float64() * DefaultHeight})
			case 1:
				actions = append(actions, Action{Player: p, Kind: ActAttack,
					TargetEntity: npcs[rng.Intn(len(npcs))]})
			case 2:
				actions = append(actions, Action{Player: p, Kind: ActPickUp,
					TargetEntity: items[rng.Intn(len(items))]})
			case 3:
				actions = append(actions, Action{Player: p, Kind: ActEmote, StateTag: uint8(tick)})
			}
		}
		deltas := w.Step(actions)
		rep.Apply(w.Tick(), deltas)
		if tick == 100 {
			// A leave and a rejoin, carried as the cloud's session deltas.
			gone, _ := w.Avatar(3)
			w.RemovePlayer(3)
			back := w.SpawnAvatar(3, 10, 10)
			rep.Apply(w.Tick(), []Delta{{ID: gone.ID, Removed: true}, {ID: back.ID, Entity: back}})
		}
		snap := w.Snapshot()
		if got, want := w.Grid().Digest(), rebuiltGrid(snap).Digest(); got != want {
			t.Fatalf("tick %d: incremental grid digest %x != rebuilt %x", tick, got, want)
		}
		if rs := rep.Snapshot(); !rs.Equal(snap) || rs.Tick != snap.Tick {
			t.Fatalf("tick %d: replica (tick %d, %d entities) differs from the world (tick %d, %d entities)",
				tick, rs.Tick, len(rs.Entities), snap.Tick, len(snap.Entities))
		}
		if got, want := rep.Grid().Digest(), w.Grid().Digest(); got != want || got != rebuiltGrid(rep.Snapshot()).Digest() {
			t.Fatalf("tick %d: replica grid digest %x, world %x, rebuilt from the replica %x",
				tick, got, want, rebuiltGrid(rep.Snapshot()).Digest())
		}
		if w.Grid().Len() != w.NumEntities() {
			t.Fatalf("tick %d: grid has %d entities, world has %d", tick, w.Grid().Len(), w.NumEntities())
		}
	}
}

// TestRestoreRebuildsGridBitIdentical is the checkpoint equivalence
// argument: the grid is derived state, so a world restored from a
// snapshot re-derives an index bit-identical to the primary's without the
// checkpoint carrying it.
func TestRestoreRebuildsGridBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := New(0, 0)
	for p := 0; p < 8; p++ {
		w.SpawnAvatar(p, rng.Float64()*DefaultWidth, rng.Float64()*DefaultHeight)
	}
	for i := 0; i < 30; i++ {
		w.SpawnNPC(rng.Float64()*DefaultWidth, rng.Float64()*DefaultHeight)
	}
	for tick := 0; tick < 50; tick++ {
		var actions []Action
		for p := 0; p < 8; p++ {
			actions = append(actions, Action{Player: p, Kind: ActMove,
				TargetX: rng.Float64() * DefaultWidth, TargetY: rng.Float64() * DefaultHeight})
		}
		w.Step(actions)
	}
	restored := Restore(w.Snapshot(), w.NextID())
	if got, want := restored.Grid().Digest(), w.Grid().Digest(); got != want {
		t.Fatalf("restored grid digest %x != primary %x", got, want)
	}
	// SetEntity/RemoveEntity (delta-log replay) keep the index in step too.
	e := w.SpawnNPC(500, 500)
	restored.SetEntity(e)
	w.Step([]Action{{Player: 0, Kind: ActMove, TargetX: 0, TargetY: 0}})
	av, _ := w.Avatar(0)
	restored.SetEntity(av)
	restored.SetTick(w.Tick())
	w.RemoveEntity(e.ID)
	restored.RemoveEntity(e.ID)
	if got, want := restored.Grid().Digest(), w.Grid().Digest(); got != want {
		t.Fatalf("after replay ops: restored grid digest %x != primary %x", got, want)
	}
}

func TestGridAppendCellSorted(t *testing.T) {
	g := NewGrid(Geometry(DefaultWidth, DefaultHeight, DefaultCellSize))
	// Insert out of ID order into one cell.
	for _, id := range []EntityID{9, 3, 7, 1, 5} {
		g.Insert(id, 10, 10)
	}
	ids := g.AppendCell(nil, g.Geom().CellOf(10, 10))
	want := []EntityID{1, 3, 5, 7, 9}
	if len(ids) != len(want) {
		t.Fatalf("cell has %d ids, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("cell ids = %v, want %v", ids, want)
		}
	}
	g.Remove(5, 10, 10)
	if g.CellLen(g.Geom().CellOf(10, 10)) != 4 || g.Len() != 4 {
		t.Fatalf("after remove: cell len %d grid len %d, want 4/4", g.CellLen(g.Geom().CellOf(10, 10)), g.Len())
	}
	// Cross-cell move relocates, same-cell move is a no-op.
	g.Move(1, 10, 10, 900, 900)
	if g.CellLen(g.Geom().CellOf(900, 900)) != 1 {
		t.Fatal("cross-cell move did not relocate")
	}
	g.Move(3, 10, 10, 12, 12)
	if g.CellLen(g.Geom().CellOf(10, 10)) != 3 {
		t.Fatal("same-cell move changed occupancy")
	}
}

func TestReplicaAvatar(t *testing.T) {
	r := NewReplica(0, 0)
	if _, ok := r.Avatar(4); ok {
		t.Fatal("empty replica reports an avatar")
	}
	r.Apply(1, []Delta{{ID: 2, Entity: Entity{ID: 2, Kind: KindAvatar, Owner: 4, X: 100, Y: 200, Version: 1}}})
	a, ok := r.Avatar(4)
	if !ok || a.ID != 2 || a.X != 100 || a.Y != 200 {
		t.Fatalf("Avatar = (%+v, %v), want entity 2 at (100,200)", a, ok)
	}
	r.Apply(2, []Delta{{ID: 2, Removed: true}})
	if _, ok := r.Avatar(4); ok {
		t.Fatal("removed avatar still reported")
	}
}

func TestReplicaApplyCellKeyframe(t *testing.T) {
	geo := Geometry(DefaultWidth, DefaultHeight, DefaultCellSize)
	r := NewReplica(0, 0)
	// Stale view of cell (10,10): entities 1 and 2 in-cell, 3 elsewhere.
	r.Apply(1, []Delta{
		{ID: 1, Entity: Entity{ID: 1, Kind: KindNPC, Owner: -1, X: 10, Y: 10, Version: 5}},
		{ID: 2, Entity: Entity{ID: 2, Kind: KindItem, Owner: -1, X: 20, Y: 20, Version: 1}},
		{ID: 3, Entity: Entity{ID: 3, Kind: KindNPC, Owner: -1, X: 500, Y: 500, Version: 1}},
	})
	// Keyframe for the cell: entity 1 moved (newer version), entity 2 is
	// gone, entity 4 appeared. Entity 3 is out-of-cell and must survive.
	c := geo.CellOf(10, 10)
	r.ApplyCellKeyframe(9, c, []Delta{
		{ID: 1, Entity: Entity{ID: 1, Kind: KindNPC, Owner: -1, X: 12, Y: 10, Version: 6}},
		{ID: 4, Entity: Entity{ID: 4, Kind: KindItem, Owner: -1, X: 30, Y: 30, Version: 2}},
	})
	if r.Tick() != 9 {
		t.Fatalf("tick = %d, want 9", r.Tick())
	}
	if _, ok := r.Entity(2); ok {
		t.Fatal("entity 2 not pruned by keyframe")
	}
	if e, ok := r.Entity(1); !ok || e.X != 12 || e.Version != 6 {
		t.Fatalf("entity 1 = %+v, want updated copy", e)
	}
	if _, ok := r.Entity(4); !ok {
		t.Fatal("entity 4 not added by keyframe")
	}
	if _, ok := r.Entity(3); !ok {
		t.Fatal("out-of-cell entity 3 pruned")
	}
	// A keyframe never resurrects staleness: an older version in the
	// keyframe loses to a newer replica copy.
	r.ApplyCellKeyframe(10, c, []Delta{
		{ID: 1, Entity: Entity{ID: 1, Kind: KindNPC, Owner: -1, X: 0, Y: 0, Version: 3}},
		{ID: 4, Entity: Entity{ID: 4, Kind: KindItem, Owner: -1, X: 30, Y: 30, Version: 2}},
	})
	if e, _ := r.Entity(1); e.Version != 6 {
		t.Fatalf("stale keyframe overwrote entity 1: %+v", e)
	}
}

func BenchmarkGridMove(b *testing.B) {
	g := NewGrid(Geometry(DefaultWidth, DefaultHeight, DefaultCellSize))
	for id := EntityID(1); id <= 1024; id++ {
		g.Insert(id, float64(id%1024), float64((id*7)%1024))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := EntityID(i%1024 + 1)
		ox, oy := float64(id%1024), float64((id*7)%1024)
		g.Move(id, ox, oy, ox+MoveSpeed, oy)
		g.Move(id, ox+MoveSpeed, oy, ox, oy)
	}
}
