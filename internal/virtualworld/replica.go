package virtualworld

import "slices"

// Replica is the supernode-side copy of the virtual world. The cloud
// computes the authoritative state and streams deltas; the replica applies
// them ("the supernodes update the virtual world" — §3.1), discarding
// stale updates by entity version, and serves each video session its
// player's view (ViewInto) plus full snapshots for convergence checks.
type Replica struct {
	width, height float64
	entities      map[EntityID]Entity
	byOwner       map[int]EntityID
	// grid is the same incrementally maintained spatial index the World
	// keeps, over the replica's own copies: it answers view queries and
	// keyframe pruning per cell instead of per world.
	grid      *Grid
	viewCells []uint32 // ViewInto scratch
	tick      uint64
	applied   int
	stale     int
}

// NewReplica creates an empty replica for a world of the given dimensions.
func NewReplica(width, height float64) *Replica {
	if width <= 0 {
		width = DefaultWidth
	}
	if height <= 0 {
		height = DefaultHeight
	}
	return &Replica{
		width: width, height: height,
		entities: make(map[EntityID]Entity),
		byOwner:  make(map[int]EntityID),
		grid:     NewGrid(Geometry(width, height, DefaultCellSize)),
	}
}

// Grid returns the replica's spatial index. Callers must treat it as
// read-only; it is maintained by the replica's own mutation paths.
func (r *Replica) Grid() *Grid { return r.grid }

// Apply folds one tick's deltas into the replica. Updates older than the
// replica's current version of an entity are discarded (out-of-order or
// duplicated delivery).
func (r *Replica) Apply(tick uint64, deltas []Delta) {
	if tick > r.tick {
		r.tick = tick
	}
	for _, d := range deltas {
		if d.Removed {
			r.removeEntity(d.ID)
			r.applied++
			continue
		}
		if cur, ok := r.entities[d.ID]; ok && cur.Version >= d.Entity.Version {
			r.stale++
			continue
		}
		r.setEntity(d.Entity)
		r.applied++
	}
}

// setEntity stores an entity copy, maintaining the grid and owner index.
func (r *Replica) setEntity(e Entity) {
	if old, ok := r.entities[e.ID]; ok {
		r.grid.Move(e.ID, old.X, old.Y, e.X, e.Y)
	} else {
		r.grid.Insert(e.ID, e.X, e.Y)
	}
	r.entities[e.ID] = e
	if e.Kind == KindAvatar && e.Owner >= 0 {
		r.byOwner[e.Owner] = e.ID
	}
}

// removeEntity deletes an entity, maintaining the grid and owner index.
func (r *Replica) removeEntity(id EntityID) {
	e, ok := r.entities[id]
	if !ok {
		return
	}
	r.grid.Remove(id, e.X, e.Y)
	delete(r.entities, id)
	if e.Kind == KindAvatar && e.Owner >= 0 && r.byOwner[e.Owner] == id {
		delete(r.byOwner, e.Owner)
	}
}

// AvatarPos returns the position of a player's avatar in the replica, and
// whether the replica knows it: where a fog centres a player's view.
func (r *Replica) AvatarPos(player int) (x, y float64, ok bool) {
	id, ok := r.byOwner[player]
	if !ok {
		return 0, 0, false
	}
	e, ok := r.entities[id]
	if !ok {
		return 0, 0, false
	}
	return e.X, e.Y, true
}

// ApplyCellKeyframe folds a cell-enter keyframe into the replica: deltas
// is the complete entity population of grid cell c (sorted by ID), so any
// replica entity inside the cell that the keyframe does not mention was
// removed while the fog was unsubscribed and is deleted here — the rule
// that makes partial world views converge without per-entity tombstones.
// The deltas then apply with the usual version staleness check. c indexes
// the replica's own grid, whose geometry the cloud shares (same world
// dimensions, DefaultCellSize); the cost is the cell's population, not
// the replica's.
func (r *Replica) ApplyCellKeyframe(tick uint64, c uint32, deltas []Delta) {
	if int(c) < len(r.grid.cells) {
		// Both lists ascend by ID; walk them from the top so removing
		// cell[i] never shifts an element still to be visited.
		cell := r.grid.cells[c]
		j := len(deltas) - 1
		for i := len(cell) - 1; i >= 0; i-- {
			id := cell[i]
			for j >= 0 && deltas[j].ID > id {
				j--
			}
			if j >= 0 && deltas[j].ID == id {
				continue
			}
			r.removeEntity(id)
			r.applied++
		}
	}
	r.Apply(tick, deltas)
}

// Seed initializes the replica from a full snapshot (the state transferred
// when a supernode joins).
func (r *Replica) Seed(s Snapshot) {
	r.tick = s.Tick
	r.width, r.height = s.Width, s.Height
	r.entities = make(map[EntityID]Entity, len(s.Entities))
	r.byOwner = make(map[int]EntityID)
	r.grid = NewGrid(Geometry(s.Width, s.Height, DefaultCellSize))
	for _, e := range s.Entities {
		r.setEntity(e)
	}
}

// Size returns the replica's world dimensions.
func (r *Replica) Size() (width, height float64) { return r.width, r.height }

// Tick returns the latest applied tick.
func (r *Replica) Tick() uint64 { return r.tick }

// NumEntities returns the replica's entity count.
func (r *Replica) NumEntities() int { return len(r.entities) }

// AppliedDeltas returns how many deltas have been applied.
func (r *Replica) AppliedDeltas() int { return r.applied }

// StaleDeltas returns how many deltas were discarded as stale.
func (r *Replica) StaleDeltas() int { return r.stale }

// Entity returns the replica's copy of an entity and whether it exists.
func (r *Replica) Entity(id EntityID) (Entity, bool) {
	e, ok := r.entities[id]
	return e, ok
}

// Snapshot captures the replica state, sorted by entity ID.
func (r *Replica) Snapshot() Snapshot {
	out := Snapshot{Tick: r.tick, Width: r.width, Height: r.height,
		Entities: make([]Entity, 0, len(r.entities))}
	for _, e := range r.entities {
		out.Entities = append(out.Entities, e)
	}
	slices.SortFunc(out.Entities, cmpEntityID)
	return out
}

// Equal reports whether two snapshots contain identical entity states —
// used to verify replica convergence.
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Entities) != len(o.Entities) {
		return false
	}
	for i := range s.Entities {
		if s.Entities[i] != o.Entities[i] {
			return false
		}
	}
	return true
}
