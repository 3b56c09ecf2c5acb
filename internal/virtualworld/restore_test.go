package virtualworld

import "testing"

// buildBusyWorld produces a world with spawn/remove history so that the
// ID allocator is ahead of max(ID)+1 in interesting ways.
func buildBusyWorld() *World {
	w := New(256, 256)
	w.SpawnAvatar(1, 10, 10)
	w.SpawnAvatar(2, 50, 50)
	npc := w.SpawnNPC(30, 30)
	w.SpawnItem(12, 12)
	w.SpawnItem(60, 60)
	// Kill the NPC through combat so it is removed mid-sequence.
	for i := 0; i < 12; i++ {
		w.Step([]Action{
			{Player: 1, Kind: ActMove, TargetX: 30, TargetY: 30},
			{Player: 2, Kind: ActAttack, TargetEntity: npc.ID},
		})
	}
	w.SpawnAvatar(3, 100, 100) // allocated after the removal
	w.Step([]Action{{Player: 3, Kind: ActEmote, StateTag: 2}})
	return w
}

func TestRestoreBitIdentical(t *testing.T) {
	w := buildBusyWorld()
	snap := w.Snapshot()
	r := Restore(snap, w.NextID())

	if !r.Snapshot().Equal(snap) {
		t.Fatal("restored snapshot differs from source")
	}
	if r.Tick() != w.Tick() {
		t.Fatalf("tick: got %d want %d", r.Tick(), w.Tick())
	}
	if r.NextID() != w.NextID() {
		t.Fatalf("nextID: got %d want %d", r.NextID(), w.NextID())
	}

	// The state machines must stay in lockstep: identical inputs produce
	// identical deltas and identical follow-on spawns.
	acts := []Action{
		{Player: 1, Kind: ActMove, TargetX: 5, TargetY: 5},
		{Player: 3, Kind: ActEmote, StateTag: 7},
	}
	d1, d2 := w.Step(acts), r.Step(acts)
	if len(d1) != len(d2) {
		t.Fatalf("delta count diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delta %d diverged: %+v vs %+v", i, d1[i], d2[i])
		}
	}
	a1, a2 := w.SpawnAvatar(9, 1, 1), r.SpawnAvatar(9, 1, 1)
	if a1 != a2 {
		t.Fatalf("post-restore spawn diverged: %+v vs %+v", a1, a2)
	}
}

func TestSetEntityRemoveEntityMaintainIndexes(t *testing.T) {
	w := New(0, 0)
	av := Entity{ID: 7, Kind: KindAvatar, Owner: 3, X: 1, Y: 2, HP: 50, Version: 4}
	w.SetEntity(av)
	if got, ok := w.Avatar(3); !ok || got.ID != 7 {
		t.Fatalf("owner index not maintained: %+v", got)
	}
	if w.NextID() != 8 {
		t.Fatalf("nextID not advanced past inserted ID: %d", w.NextID())
	}
	// Overwrite with a newer version: same identity, updated state.
	av.HP = 10
	av.Version = 9
	w.SetEntity(av)
	if got, _ := w.Entity(7); got.HP != 10 || got.Version != 9 {
		t.Fatalf("overwrite lost state: %+v", got)
	}
	w.RemoveEntity(7)
	if _, ok := w.Avatar(3); ok {
		t.Fatal("owner index kept a removed avatar")
	}
	if _, ok := w.Entity(7); ok {
		t.Fatal("entity survived removal")
	}
	// Removing a non-existent ID is a no-op.
	w.RemoveEntity(99)
}

func TestSetNextIDNeverOrphansAllocator(t *testing.T) {
	w := New(0, 0)
	w.SpawnNPC(1, 1) // ID 1
	w.SpawnNPC(2, 2) // ID 2
	w.SetNextID(1)   // attempt to move backwards past a live entity
	if w.NextID() != 3 {
		t.Fatalf("allocator moved behind a live ID: %d", w.NextID())
	}
	w.SetNextID(40)
	if w.NextID() != 40 {
		t.Fatalf("allocator did not advance: %d", w.NextID())
	}
}

func TestSnapshotIntoMatchesSnapshotAndReusesMemory(t *testing.T) {
	w := buildBusyWorld()
	want := w.Snapshot()

	var s Snapshot
	w.SnapshotInto(&s)
	if !s.Equal(want) || s.Tick != want.Tick || s.Width != want.Width || s.Height != want.Height {
		t.Fatal("SnapshotInto differs from Snapshot")
	}

	// Steady state: repeat captures into the same Snapshot allocate nothing.
	allocs := testing.AllocsPerRun(100, func() { w.SnapshotInto(&s) })
	if allocs != 0 {
		t.Fatalf("SnapshotInto allocated %v/op at steady state", allocs)
	}
}
