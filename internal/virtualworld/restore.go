package virtualworld

import "slices"

// This file is the checkpoint/restore surface of the world: everything the
// cloud tier needs to snapshot the authoritative state without allocating
// on the tick path and to rebuild a bit-identical World on a warm standby
// (internal/checkpoint drives these; see DESIGN.md §12).

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
// maintaining the owner index. This is how a standby folds logged deltas
// (which carry complete entity states) into a restored world.
func (w *World) SetEntity(e Entity) {
	c := e
	if old, ok := w.entities[c.ID]; ok {
		w.grid.Move(c.ID, old.X, old.Y, c.X, c.Y)
	} else {
		w.grid.Insert(c.ID, c.X, c.Y)
	}
	w.entities[c.ID] = &c
	if c.Kind == KindAvatar && c.Owner >= 0 {
		w.byOwner[c.Owner] = c.ID
	}
	if c.ID >= w.nextID {
		w.nextID = c.ID + 1
	}
}

// RemoveEntity deletes an entity by ID, maintaining the owner index.
func (w *World) RemoveEntity(id EntityID) {
	e, ok := w.entities[id]
	if !ok {
		return
	}
	w.grid.Remove(id, e.X, e.Y)
	delete(w.entities, id)
	if e.Kind == KindAvatar && e.Owner >= 0 && w.byOwner[e.Owner] == id {
		delete(w.byOwner, e.Owner)
	}
}

// Restore rebuilds an authoritative World from a snapshot plus the ID
// allocator position. The result is bit-identical to the world the
// snapshot was taken from: same entities, same owner index, same tick,
// same next ID — so a promoted standby continues the exact state machine.
func Restore(s Snapshot, nextID EntityID) *World {
	w := New(s.Width, s.Height)
	w.tick = s.Tick
	for _, e := range s.Entities {
		w.SetEntity(e)
	}
	if nextID > w.nextID {
		w.nextID = nextID
	}
	return w
}

// SnapshotInto captures the current state into s, reusing s.Entities'
// backing array. Once capacity stabilizes this performs zero allocations,
// which keeps the checkpoint encode off the tick-path allocation budget.
func (w *World) SnapshotInto(s *Snapshot) {
	s.Tick = w.tick
	s.Width, s.Height = w.width, w.height
	s.Entities = s.Entities[:0]
	for _, e := range w.entities {
		s.Entities = append(s.Entities, *e)
	}
	slices.SortFunc(s.Entities, cmpEntityID)
}
