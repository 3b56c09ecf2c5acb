package virtualworld

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"cloudfog/internal/rng"
)

func TestNewDefaults(t *testing.T) {
	w := New(0, -5)
	width, height := w.Size()
	if width != DefaultWidth || height != DefaultHeight {
		t.Errorf("size = %v x %v", width, height)
	}
	if w.Tick() != 0 || w.NumEntities() != 0 {
		t.Error("fresh world not empty")
	}
	if w.String() == "" {
		t.Error("empty String")
	}
}

func TestSpawnAvatarIdempotent(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, 10, 10)
	b := w.SpawnAvatar(1, 90, 90)
	if a != b {
		t.Error("second spawn created a new avatar")
	}
	if got, ok := w.Avatar(1); !ok || got != a {
		t.Error("Avatar lookup broken")
	}
	if a.HP != MaxHP || a.Kind != KindAvatar || a.Owner != 1 {
		t.Errorf("avatar malformed: %+v", a)
	}
}

func TestSpawnClampsPosition(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, -50, 400)
	if a.X != 0 || a.Y != 100 {
		t.Errorf("spawn not clamped: %v, %v", a.X, a.Y)
	}
}

func TestRemovePlayer(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, 10, 10)
	w.RemovePlayer(1)
	_, hasAvatar := w.Avatar(1)
	if _, hasEntity := w.Entity(a.ID); hasAvatar || hasEntity {
		t.Error("avatar not removed")
	}
	w.RemovePlayer(1) // idempotent
}

func TestMoveStepsTowardTarget(t *testing.T) {
	w := New(1000, 1000)
	a := w.SpawnAvatar(1, 100, 100)
	deltas := w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: 200, TargetY: 100}})
	if len(deltas) != 1 || deltas[0].ID != a.ID {
		t.Fatalf("deltas = %+v", deltas)
	}
	a, _ = w.Avatar(1)
	if a.X != 100+MoveSpeed || a.Y != 100 {
		t.Errorf("avatar at %v,%v after one move tick", a.X, a.Y)
	}
	if math.Abs(a.Facing) > 1e-9 {
		t.Errorf("facing = %v", a.Facing)
	}
	// Target closer than MoveSpeed: arrive exactly.
	w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: a.X + 2, TargetY: 100}})
	a, _ = w.Avatar(1)
	if a.X != 100+MoveSpeed+2 {
		t.Errorf("short move overshot: %v", a.X)
	}
}

func TestMoveNoOpProducesNoDelta(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, 50, 50)
	deltas := w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: 50, TargetY: 50}})
	if len(deltas) != 0 {
		t.Errorf("no-op move produced deltas: %+v", deltas)
	}
	a, _ = w.Avatar(1)
	if a.Version != 1 {
		t.Errorf("version bumped: %d", a.Version)
	}
}

func TestAttackInRange(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	victim := w.SpawnAvatar(2, 60, 50)
	deltas := w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: victim.ID}})
	victim, _ = w.Avatar(2)
	if victim.HP != MaxHP-AttackDamage {
		t.Errorf("victim HP = %d", victim.HP)
	}
	if len(deltas) != 2 {
		t.Errorf("deltas = %d, want attacker+victim", len(deltas))
	}
}

func TestAttackOutOfRange(t *testing.T) {
	w := New(500, 500)
	w.SpawnAvatar(1, 10, 10)
	victim := w.SpawnAvatar(2, 400, 400)
	deltas := w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: victim.ID}})
	victim, _ = w.Avatar(2)
	if victim.HP != MaxHP || len(deltas) != 0 {
		t.Error("out-of-range attack landed")
	}
}

func TestAttackCannotHitItemsOrSelf(t *testing.T) {
	w := New(200, 200)
	a := w.SpawnAvatar(1, 50, 50)
	item := w.SpawnItem(52, 52)
	if got := w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: item.ID}}); len(got) != 0 {
		t.Error("attacked an item")
	}
	if got := w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: a.ID}}); len(got) != 0 {
		t.Error("attacked self")
	}
}

func TestKilledNPCDespawns(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	npc := w.SpawnNPC(55, 50)
	hits := int(math.Ceil(float64(MaxHP) / AttackDamage))
	var lastDeltas []Delta
	for i := 0; i < hits; i++ {
		lastDeltas = w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: npc.ID}})
	}
	if _, ok := w.Entity(npc.ID); ok {
		t.Fatal("dead NPC still present")
	}
	foundRemoval := false
	for _, d := range lastDeltas {
		if d.Removed && d.ID == npc.ID {
			foundRemoval = true
		}
	}
	if !foundRemoval {
		t.Errorf("no removal delta: %+v", lastDeltas)
	}
}

func TestKilledAvatarRespawns(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	victim := w.SpawnAvatar(2, 55, 50)
	hits := int(math.Ceil(float64(MaxHP) / AttackDamage))
	for i := 0; i < hits; i++ {
		w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: victim.ID}})
	}
	victim, _ = w.Avatar(2)
	if victim.HP != MaxHP {
		t.Errorf("avatar not respawned: HP=%d", victim.HP)
	}
	if victim.X != 8 || victim.Y != 8 {
		t.Errorf("respawn position %v,%v", victim.X, victim.Y)
	}
}

func TestPickUp(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	item := w.SpawnItem(55, 50)
	far := w.SpawnItem(150, 150)
	deltas := w.Step([]Action{{Player: 1, Kind: ActPickUp, TargetEntity: item.ID}})
	if _, ok := w.Entity(item.ID); ok {
		t.Error("item not collected")
	}
	foundRemoval := false
	for _, d := range deltas {
		if d.Removed && d.ID == item.ID {
			foundRemoval = true
		}
	}
	if !foundRemoval {
		t.Error("no item removal delta")
	}
	if got := w.Step([]Action{{Player: 1, Kind: ActPickUp, TargetEntity: far.ID}}); len(got) != 0 {
		t.Error("picked up a distant item")
	}
}

func TestEmote(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, 50, 50)
	w.Step([]Action{{Player: 1, Kind: ActEmote, StateTag: 7}})
	a, _ = w.Avatar(1)
	if a.State != 7 {
		t.Errorf("state = %d", a.State)
	}
}

func TestDeadOrMissingActorIgnored(t *testing.T) {
	w := New(100, 100)
	if got := w.Step([]Action{{Player: 99, Kind: ActMove, TargetX: 1, TargetY: 1}}); len(got) != 0 {
		t.Error("ghost player acted")
	}
}

func TestStepDeterministicOrder(t *testing.T) {
	// Two attack actions submitted in different orders must resolve
	// identically (sorted by player ID).
	build := func() (*World, Entity) {
		w := New(200, 200)
		w.SpawnAvatar(1, 50, 50)
		w.SpawnAvatar(2, 55, 50)
		npc := w.SpawnNPC(52, 52)
		return w, npc
	}
	w1, npc1 := build()
	w1.Step([]Action{
		{Player: 2, Kind: ActAttack, TargetEntity: npc1.ID},
		{Player: 1, Kind: ActAttack, TargetEntity: npc1.ID},
	})
	w2, npc2 := build()
	w2.Step([]Action{
		{Player: 1, Kind: ActAttack, TargetEntity: npc2.ID},
		{Player: 2, Kind: ActAttack, TargetEntity: npc2.ID},
	})
	npc1, _ = w1.Entity(npc1.ID)
	npc2, _ = w2.Entity(npc2.ID)
	if npc1.HP != npc2.HP {
		t.Errorf("order-dependent outcome: %d vs %d", npc1.HP, npc2.HP)
	}
	if !w1.Snapshot().Equal(w2.Snapshot()) {
		t.Error("snapshots diverge under reordered input")
	}
}

func TestVersionsMonotoneProperty(t *testing.T) {
	// Property: entity versions never decrease across ticks.
	f := func(moves []uint8) bool {
		w := New(300, 300)
		a := w.SpawnAvatar(1, 150, 150)
		lastVersion := a.Version
		for _, m := range moves {
			w.Step([]Action{{
				Player: 1, Kind: ActMove,
				TargetX: float64(m), TargetY: float64(255 - m),
			}})
			a, _ = w.Avatar(1)
			if a.Version < lastVersion {
				return false
			}
			lastVersion = a.Version
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPositionsStayInWorldProperty(t *testing.T) {
	f := func(targets []int16) bool {
		w := New(200, 200)
		a := w.SpawnAvatar(1, 100, 100)
		for _, tgt := range targets {
			w.Step([]Action{{
				Player: 1, Kind: ActMove,
				TargetX: float64(tgt), TargetY: float64(-tgt),
			}})
			a, _ = w.Avatar(1)
			if a.X < 0 || a.X > 200 || a.Y < 0 || a.Y > 200 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	w := New(100, 100)
	w.SpawnAvatar(1, 10, 10)
	s := w.Snapshot()
	w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: 90, TargetY: 90}})
	if s.Entities[0].X != 10 {
		t.Error("snapshot mutated by later ticks")
	}
	if s.Tick != 0 || w.Tick() != 1 {
		t.Error("tick bookkeeping wrong")
	}
}

func TestSnapshotSorted(t *testing.T) {
	w := New(100, 100)
	w.SpawnNPC(1, 1)
	w.SpawnAvatar(1, 2, 2)
	w.SpawnItem(3, 3)
	es := w.Snapshot().Entities
	for i := 1; i < len(es); i++ {
		if es[i].ID <= es[i-1].ID {
			t.Fatal("Snapshot not sorted")
		}
	}
}

// TestMoveStaysInWorld pins the sequence that used to walk an avatar off
// the plane: dx/dist*step overshot Y=0 by one ulp (−4.44e−16) because the
// stepped position was not re-clamped.
func TestMoveStaysInWorld(t *testing.T) {
	targets := []float64{-29884, 27191, -7043, 3910, 14313, -1136, -16423, 27709, 4443, 27752,
		-27065, 11056, 14315, 13002, 30207, 15292, -23105, 24015, 5471, 8908, 7157, 21879, 10007,
		1240, 14135, 17200, 10330, -23030, 2615, 5724, 30611, -18704, -2137, 24176, 29872, 22410}
	w := New(200, 200)
	a := w.SpawnAvatar(1, 100, 100)
	for i, tgt := range targets {
		w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: tgt, TargetY: -tgt}})
		a, _ = w.Avatar(1)
		if a.X < 0 || a.X > 200 || a.Y < 0 || a.Y > 200 {
			t.Fatalf("after move %d (target %v,%v) avatar left the world: (%v, %v)", i, tgt, -tgt, a.X, a.Y)
		}
	}
}

// oracleStep is Step as it was before it sorted only what changed: mark
// changed and removed IDs in maps, then walk every entity in ID order.
// Kept as the reference the O(changed) emit is compared against.
func oracleStep(w *World, actions []Action) []Delta {
	w.tick++
	changed := make(map[EntityID]bool)
	removed := make(map[EntityID]bool)
	sorted := append([]Action(nil), actions...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Player < sorted[j].Player })
	for _, a := range sorted {
		actor, ok := w.Avatar(a.Player)
		if !ok || actor.HP <= 0 {
			continue
		}
		switch a.Kind {
		case ActMove:
			if w.applyMove(&actor, a.TargetX, a.TargetY) {
				changed[actor.ID] = true
			}
		case ActAttack:
			if victim, ok := w.applyAttack(&actor, a.TargetEntity); ok {
				changed[actor.ID] = true
				changed[victim.ID] = true
				if victim.HP <= 0 && victim.Kind == KindNPC {
					w.drop(victim.ID)
					removed[victim.ID] = true
				}
			}
		case ActPickUp:
			if item, ok := w.applyPickUp(&actor, a.TargetEntity); ok {
				changed[actor.ID] = true
				removed[item.ID] = true
			}
		case ActEmote:
			actor.State = a.StateTag
			actor.Version++
			w.put(actor)
			changed[actor.ID] = true
		}
	}
	var owned []EntityID
	for _, id := range w.byOwner {
		owned = append(owned, id)
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	for _, id := range owned {
		e, ok := w.entities[id]
		if ok && e.Kind == KindAvatar && e.HP <= 0 {
			e.HP = MaxHP
			e.X, e.Y = w.clampPos(8, 8)
			e.Version++
			w.put(e)
			changed[e.ID] = true
		}
	}
	deltas := make([]Delta, 0, len(changed)+len(removed))
	for _, e := range w.Snapshot().Entities {
		if changed[e.ID] && !removed[e.ID] {
			deltas = append(deltas, Delta{ID: e.ID, Entity: e})
		}
	}
	rm := make([]EntityID, 0, len(removed))
	for id := range removed {
		rm = append(rm, id)
	}
	sort.Slice(rm, func(i, j int) bool { return rm[i] < rm[j] })
	for _, id := range rm {
		deltas = append(deltas, Delta{ID: id, Removed: true})
	}
	return deltas
}

// TestStepDeltasMatchOracle runs two identical worlds in lockstep, one
// through Step and one through the oracle, over random action mixes in a
// world crowded enough that NPCs die, items are collected and avatars are
// killed and respawn. Every tick's delta slice must be identical, order
// included, and so must the worlds afterwards.
func TestStepDeltasMatchOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed).SplitNamed("step-oracle")
		w := New(120, 120)
		const players = 6
		for p := 1; p <= players; p++ {
			w.SpawnAvatar(p, r.Uniform(30, 90), r.Uniform(30, 90))
		}
		for i := 0; i < 40; i++ {
			w.SpawnNPC(r.Uniform(20, 100), r.Uniform(20, 100))
			w.SpawnItem(r.Uniform(20, 100), r.Uniform(20, 100))
		}
		ref := Restore(w.Snapshot(), w.NextID())
		kind := map[EntityID]EntityKind{}
		for _, e := range w.Snapshot().Entities {
			kind[e.ID] = e.Kind
		}
		var kills, pickups, respawns, emotes int
		for tick := 0; tick < 400; tick++ {
			var actions []Action
			// Players act in shuffled order, some twice, some not at all.
			for i := r.Intn(2 * players); i > 0; i-- {
				a := Action{Player: 1 + r.Intn(players+1), // players+1 has no avatar
					TargetX: r.Uniform(-10, 130), TargetY: r.Uniform(-10, 130),
					TargetEntity: EntityID(1 + r.Intn(int(w.NextID()))), StateTag: uint8(r.Intn(4))}
				a.Kind = []ActionKind{ActMove, ActAttack, ActAttack, ActPickUp, ActEmote}[r.Intn(5)]
				if a.Kind != ActMove && a.Kind != ActEmote && r.Intn(2) == 0 {
					// Aim at something in reach, so fights actually finish.
					if me, ok := w.Avatar(a.Player); ok {
						for _, e := range w.Snapshot().Entities {
							if e.ID != me.ID && math.Hypot(e.X-me.X, e.Y-me.Y) <= PickUpRange {
								a.TargetEntity = e.ID
								break
							}
						}
					}
				}
				actions = append(actions, a)
			}
			hpBefore := map[int]int16{}
			for p := 1; p <= players; p++ {
				av, _ := w.Avatar(p)
				hpBefore[p] = av.HP
			}
			got := w.Step(actions)
			want := oracleStep(ref, actions)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d tick %d: Step deltas differ from the oracle\n got: %+v\nwant: %+v", seed, tick, got, want)
			}
			for _, d := range got {
				switch {
				case d.Removed && kind[d.ID] == KindItem:
					pickups++
				case d.Removed:
					kills++
				case d.Entity.Kind == KindAvatar && d.Entity.HP == MaxHP && hpBefore[d.Entity.Owner] < MaxHP:
					respawns++
				case d.Entity.Kind == KindAvatar && d.Entity.State > 1:
					emotes++
				}
			}
		}
		if !w.Snapshot().Equal(ref.Snapshot()) || w.Tick() != ref.Tick() || w.Grid().Digest() != ref.Grid().Digest() {
			t.Fatalf("seed %d: worlds diverged after 400 ticks", seed)
		}
		if kills == 0 || pickups == 0 || respawns == 0 || emotes == 0 {
			t.Fatalf("seed %d: action mix too tame to mean anything: kills=%d pickups=%d respawns=%d emotes=%d",
				seed, kills, pickups, respawns, emotes)
		}
	}
}
