package virtualworld

// This file is the checkpoint/restore surface of the world: everything the
// cloud tier needs to snapshot the authoritative state without allocating
// on the tick path and to rebuild a bit-identical World on a warm standby
// (internal/checkpoint drives these; see DESIGN.md §12). SnapshotInto is
// the store's.

// NextID returns the next entity ID the world will assign. It is part of
// the checkpointed state: after entity removals, max(ID)+1 under-counts,
// so a restored world must carry the allocator position explicitly to
// keep post-restore spawns bit-identical to the primary's.
func (w *World) NextID() EntityID { return w.nextID }

// SetNextID moves the entity ID allocator. Used by delta-log replay; it
// never moves backwards past an existing entity's ID.
func (w *World) SetNextID(id EntityID) {
	if id > w.nextID {
		w.nextID = id
		return
	}
	w.nextID = id
	for eid := range w.entities {
		if eid >= w.nextID {
			w.nextID = eid + 1
		}
	}
}

// SetTick moves the tick counter (delta-log replay).
func (w *World) SetTick(tick uint64) { w.tick = tick }

// SetEntity inserts or overwrites an entity with a full post-change copy,
// advancing the ID allocator past it. This is how a standby folds logged
// deltas (which carry complete entity states) into a restored world.
func (w *World) SetEntity(e Entity) {
	w.put(e)
	if e.ID >= w.nextID {
		w.nextID = e.ID + 1
	}
}

// RemoveEntity deletes an entity by ID (delta-log replay).
func (w *World) RemoveEntity(id EntityID) { w.drop(id) }

// Restore rebuilds an authoritative World from a snapshot plus the ID
// allocator position. The result is bit-identical to the world the
// snapshot was taken from: same entities, same owner index, same tick,
// same next ID — so a promoted standby continues the exact state machine.
func Restore(s Snapshot, nextID EntityID) *World {
	w := &World{store: newStore(s.Width, s.Height, len(s.Entities)), nextID: 1}
	w.tick = s.Tick
	for _, e := range s.Entities {
		w.SetEntity(e)
	}
	if nextID > w.nextID {
		w.nextID = nextID
	}
	return w
}
