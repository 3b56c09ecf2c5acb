package virtualworld

// Replica is the supernode-side copy of the virtual world. The cloud
// computes the authoritative state and streams deltas; the replica applies
// them ("the supernodes update the virtual world" — §3.1), discarding
// stale updates by entity version, and serves each video session its
// player's view (ViewInto) plus full snapshots for convergence checks.
// Its state and queries are the store the World has too; only the version
// gate, keyframe pruning and seeding are its own.
type Replica struct {
	store
	applied int
	stale   int
}

// NewReplica creates an empty replica for a world of the given dimensions.
func NewReplica(width, height float64) *Replica {
	return &Replica{store: newStore(width, height, 0)}
}

// Apply folds one tick's deltas into the replica. Updates older than the
// replica's current version of an entity are discarded (out-of-order or
// duplicated delivery).
func (r *Replica) Apply(tick uint64, deltas []Delta) {
	if tick > r.tick {
		r.tick = tick
	}
	for _, d := range deltas {
		if d.Removed {
			r.drop(d.ID)
			r.applied++
			continue
		}
		if cur, ok := r.entities[d.ID]; ok && cur.Version >= d.Entity.Version {
			r.stale++
			continue
		}
		r.put(d.Entity)
		r.applied++
	}
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
			r.drop(id)
			r.applied++
		}
	}
	r.Apply(tick, deltas)
}

// Seed initializes the replica from a full snapshot (the state transferred
// when a supernode joins).
func (r *Replica) Seed(s Snapshot) {
	r.store = newStore(s.Width, s.Height, len(s.Entities))
	r.tick = s.Tick
	for _, e := range s.Entities {
		r.put(e)
	}
}

// AppliedDeltas returns how many deltas have been applied.
func (r *Replica) AppliedDeltas() int { return r.applied }

// StaleDeltas returns how many deltas were discarded as stale.
func (r *Replica) StaleDeltas() int { return r.stale }
