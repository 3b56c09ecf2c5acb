package virtualworld

import (
	"testing"
	"testing/quick"

	"cloudfog/internal/rng"
)

// driveWorld runs a random-but-deterministic workload over the world,
// streaming deltas to the replica, and returns both.
func driveWorld(t *testing.T, ticks int, seed uint64, shuffle bool) (*World, *Replica) {
	t.Helper()
	r := rng.New(seed)
	w := New(400, 400)
	for p := 1; p <= 8; p++ {
		w.SpawnAvatar(p, r.Uniform(0, 400), r.Uniform(0, 400))
	}
	for i := 0; i < 5; i++ {
		w.SpawnNPC(r.Uniform(0, 400), r.Uniform(0, 400))
		w.SpawnItem(r.Uniform(0, 400), r.Uniform(0, 400))
	}
	rep := NewReplica(400, 400)
	rep.Seed(w.Snapshot())
	for tick := 0; tick < ticks; tick++ {
		var actions []Action
		for p := 1; p <= 8; p++ {
			switch r.Intn(4) {
			case 0:
				actions = append(actions, Action{Player: p, Kind: ActMove,
					TargetX: r.Uniform(0, 400), TargetY: r.Uniform(0, 400)})
			case 1:
				target := EntityID(r.Intn(w.NumEntities()) + 1)
				actions = append(actions, Action{Player: p, Kind: ActAttack, TargetEntity: target})
			case 2:
				target := EntityID(r.Intn(w.NumEntities()) + 1)
				actions = append(actions, Action{Player: p, Kind: ActPickUp, TargetEntity: target})
			default:
				actions = append(actions, Action{Player: p, Kind: ActEmote, StateTag: uint8(r.Intn(4))})
			}
		}
		deltas := w.Step(actions)
		if shuffle {
			r.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
		}
		rep.Apply(w.Tick(), deltas)
	}
	return w, rep
}

func TestReplicaConverges(t *testing.T) {
	w, rep := driveWorld(t, 200, 1, false)
	if !w.Snapshot().Equal(rep.Snapshot()) {
		t.Fatal("replica diverged from the authoritative world")
	}
	if rep.Tick() != w.Tick() {
		t.Errorf("ticks differ: %d vs %d", rep.Tick(), w.Tick())
	}
	if rep.AppliedDeltas() == 0 {
		t.Error("no deltas applied")
	}
}

func TestReplicaConvergesUnderReordering(t *testing.T) {
	// Within-tick delta reordering must not break convergence (updates
	// are per-entity and versioned).
	w, rep := driveWorld(t, 200, 2, true)
	if !w.Snapshot().Equal(rep.Snapshot()) {
		t.Fatal("replica diverged under reordered deltas")
	}
}

func TestReplicaDiscardsStale(t *testing.T) {
	rep := NewReplica(100, 100)
	e := Entity{ID: 1, Kind: KindAvatar, Owner: 1, X: 10, Y: 10, Version: 5}
	rep.Apply(1, []Delta{{ID: 1, Entity: e}})
	old := e
	old.X = 99
	old.Version = 3
	rep.Apply(2, []Delta{{ID: 1, Entity: old}})
	got, ok := rep.Entity(1)
	if !ok || got.X != 10 {
		t.Errorf("stale delta applied: %+v", got)
	}
	if rep.StaleDeltas() != 1 {
		t.Errorf("stale count = %d", rep.StaleDeltas())
	}
}

func TestReplicaDuplicateDeliveryIdempotent(t *testing.T) {
	w, rep := driveWorld(t, 20, 3, false)
	// Re-deliver the final state twice via a full snapshot round trip.
	snap := w.Snapshot()
	var dup []Delta
	for _, e := range snap.Entities {
		dup = append(dup, Delta{ID: e.ID, Entity: e})
	}
	rep.Apply(w.Tick(), dup)
	rep.Apply(w.Tick(), dup)
	if !w.Snapshot().Equal(rep.Snapshot()) {
		t.Fatal("duplicate delivery corrupted replica")
	}
}

func TestReplicaSeed(t *testing.T) {
	w := New(100, 100)
	w.SpawnAvatar(1, 5, 5)
	w.SpawnNPC(60, 60)
	rep := NewReplica(0, 0)
	rep.Seed(w.Snapshot())
	if rep.NumEntities() != 2 {
		t.Errorf("seeded entities = %d", rep.NumEntities())
	}
	if !w.Snapshot().Equal(rep.Snapshot()) {
		t.Error("seed mismatch")
	}
}

func TestReplicaRemoval(t *testing.T) {
	rep := NewReplica(100, 100)
	rep.Apply(1, []Delta{{ID: 4, Entity: Entity{ID: 4, Kind: KindItem, Version: 1}}})
	rep.Apply(2, []Delta{{ID: 4, Removed: true}})
	if _, ok := rep.Entity(4); ok {
		t.Error("removed entity still present")
	}
	// Removing again is harmless.
	rep.Apply(3, []Delta{{ID: 4, Removed: true}})
}

func TestSnapshotEqualProperty(t *testing.T) {
	// Property: a snapshot equals itself and differs after any mutation.
	f := func(seed uint64) bool {
		w, _ := driveWorld(t, 5, seed%100, false)
		s := w.Snapshot()
		if !s.Equal(s) {
			return false
		}
		w.Step([]Action{{Player: 1, Kind: ActEmote, StateTag: 99}})
		return !s.Equal(w.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestViewIntoSteadyStateAllocs: once the caller's snapshot and the
// source's cell scratch have grown, a view query allocates nothing.
func TestViewIntoSteadyStateAllocs(t *testing.T) {
	w, rep := world20k()
	var view Snapshot
	for name, viewInto := range map[string]func(*Snapshot, int, float64, float64) Viewport{
		"replica": rep.ViewInto, "world": w.ViewInto,
	} {
		viewInto(&view, 1, benchHalfW, benchHalfH) // warm-up
		if len(view.Entities) < 10 {
			t.Fatalf("%s: view holds %d entities; the test world is too sparse to mean anything", name, len(view.Entities))
		}
		if n := testing.AllocsPerRun(100, func() { viewInto(&view, 1, benchHalfW, benchHalfH) }); n != 0 {
			t.Errorf("%s.ViewInto allocates %.1f/op in steady state, want 0", name, n)
		}
	}
}
