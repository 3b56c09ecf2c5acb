package virtualworld

import "slices"

// store is the entity state the authoritative World and a fog's Replica
// share: the entities by value, the owner index, the spatial grid over
// their positions, the tick and the world dimensions. World drives it with
// game rules, Replica with deltas; put and drop are the only code that
// writes the grid or the owner index, and every query is answered once,
// here, for both. Entities are held by value, so the map holds no
// pointers for the garbage collector to scan.
type store struct {
	width, height float64
	entities      map[EntityID]Entity
	byOwner       map[int]EntityID
	// grid is the uniform spatial index over entity positions, maintained
	// by put and drop so view queries, keyframes and interest-managed
	// fan-out never rebuild it. It is pure derived state: checkpoints don't
	// carry it, Restore and Seed re-derive it.
	grid      *Grid
	tick      uint64
	viewCells []uint32 // ViewInto scratch
}

// newStore creates an empty store for a world of the given size, with
// room for n entities (non-positive dimensions take the defaults).
func newStore(width, height float64, n int) store {
	if width <= 0 {
		width = DefaultWidth
	}
	if height <= 0 {
		height = DefaultHeight
	}
	return store{
		width: width, height: height,
		entities: make(map[EntityID]Entity, n),
		byOwner:  make(map[int]EntityID),
		grid:     NewGrid(Geometry(width, height, DefaultCellSize)),
	}
}

// put inserts or overwrites an entity, re-indexing it in the grid and,
// for an avatar, in the owner index.
func (s *store) put(e Entity) {
	if old, ok := s.entities[e.ID]; ok {
		s.grid.Move(e.ID, old.X, old.Y, e.X, e.Y)
	} else {
		s.grid.Insert(e.ID, e.X, e.Y)
	}
	s.entities[e.ID] = e
	if e.Kind == KindAvatar && e.Owner >= 0 {
		s.byOwner[e.Owner] = e.ID
	}
}

// drop deletes an entity, if present, from the map, the grid and the owner
// index.
func (s *store) drop(id EntityID) {
	e, ok := s.entities[id]
	if !ok {
		return
	}
	s.grid.Remove(id, e.X, e.Y)
	delete(s.entities, id)
	if e.Kind == KindAvatar && e.Owner >= 0 && s.byOwner[e.Owner] == id {
		delete(s.byOwner, e.Owner)
	}
}

// Grid returns the spatial index. Callers must treat it as read-only; it
// is maintained by the owner's own mutation paths.
func (s *store) Grid() *Grid { return s.grid }

// Size returns the world dimensions.
func (s *store) Size() (width, height float64) { return s.width, s.height }

// Tick returns the current tick number.
func (s *store) Tick() uint64 { return s.tick }

// NumEntities returns the entity count.
func (s *store) NumEntities() int { return len(s.entities) }

// Entity returns a copy of the entity with the given ID and whether it
// exists.
func (s *store) Entity(id EntityID) (Entity, bool) {
	e, ok := s.entities[id]
	return e, ok
}

// Avatar returns a copy of the player's avatar and whether it exists:
// where a view of that player is centred.
func (s *store) Avatar(player int) (Entity, bool) {
	id, ok := s.byOwner[player]
	if !ok {
		return Entity{}, false
	}
	return s.Entity(id)
}

// Snapshot is an immutable copy of the world at a tick, for replicas and
// renderers.
type Snapshot struct {
	// Tick is the world tick the snapshot was taken at.
	Tick uint64
	// Width, Height are the world dimensions.
	Width, Height float64
	// Entities are copies, sorted by ID.
	Entities []Entity
}

// Equal reports whether two snapshots contain identical entity states —
// used to verify replica convergence.
func (s Snapshot) Equal(o Snapshot) bool {
	return slices.Equal(s.Entities, o.Entities)
}

// Snapshot captures the current state, sorted by entity ID.
func (s *store) Snapshot() Snapshot {
	out := Snapshot{Entities: make([]Entity, 0, len(s.entities))}
	s.SnapshotInto(&out)
	return out
}

// SnapshotInto captures the current state into dst, reusing
// dst.Entities' backing array. Once capacity stabilizes this performs zero
// allocations, which keeps the checkpoint encode off the tick-path
// allocation budget.
func (s *store) SnapshotInto(dst *Snapshot) {
	dst.Tick, dst.Width, dst.Height = s.tick, s.width, s.height
	dst.Entities = dst.Entities[:0]
	for _, e := range s.entities {
		dst.Entities = append(dst.Entities, e)
	}
	slices.SortFunc(dst.Entities, cmpEntityID)
}
