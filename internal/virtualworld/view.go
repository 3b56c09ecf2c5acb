package virtualworld

import (
	"cmp"
	"slices"
)

// This file is the view query: what one player can see, read off the
// spatial grid in time proportional to the answer. The per-frame render
// path of every video session uses it (fog replica and cloud fallback
// alike), so the lock that guards the world is held for microseconds per
// frame however large the world is. Snapshot() remains the full-state
// query for welcome, resume, checkpoint and convergence checks.

// viewPad widens the cell cover of a viewport by a sliver of a world
// unit. Viewport.Contains tests |x-c| <= h while the cover is computed
// from c-h and c+h; the two round differently in the last bit, and the
// pad keeps an entity that Contains accepts from sitting one ulp outside
// the covered cells.
const viewPad = 1.0 / 1024

// cmpEntityID orders entities by ID, the canonical snapshot order.
func cmpEntityID(a, b Entity) int { return cmp.Compare(a.ID, b.ID) }

// appendViewCells appends the cells overlapping the viewport to dst.
func (g *Grid) appendViewCells(dst []uint32, v Viewport) []uint32 {
	return g.geo.AppendCellsInRect(dst,
		v.CenterX-v.HalfWidth-viewPad, v.CenterY-v.HalfHeight-viewPad,
		v.CenterX+v.HalfWidth+viewPad, v.CenterY+v.HalfHeight+viewPad)
}

// ViewInto fills dst with the player's view of the replica — only the
// entities inside a halfWidth×halfHeight viewport centred on the player's
// avatar (the world centre when the replica does not know the avatar),
// sorted by ID — reusing dst.Entities' backing array, and returns that
// viewport. dst carries the replica's tick and world dimensions, so it is
// exactly Snapshot() with everything the viewport cannot see left out:
// rendering either yields the same frame. Once dst and the replica's
// scratch have grown to the view's size this allocates nothing.
func (r *Replica) ViewInto(dst *Snapshot, player int, halfWidth, halfHeight float64) Viewport {
	v := Viewport{CenterX: r.width / 2, CenterY: r.height / 2, HalfWidth: halfWidth, HalfHeight: halfHeight}
	if x, y, ok := r.AvatarPos(player); ok {
		v.CenterX, v.CenterY = x, y
	}
	dst.Tick, dst.Width, dst.Height = r.tick, r.width, r.height
	dst.Entities = dst.Entities[:0]
	r.viewCells = r.grid.appendViewCells(r.viewCells[:0], v)
	for _, c := range r.viewCells {
		for _, id := range r.grid.cells[c] {
			if e := r.entities[id]; v.Contains(e.X, e.Y) {
				dst.Entities = append(dst.Entities, e)
			}
		}
	}
	slices.SortFunc(dst.Entities, cmpEntityID)
	return v
}

// ViewInto is Replica.ViewInto over the authoritative world: the cloud's
// fallback video sessions render from it.
func (w *World) ViewInto(dst *Snapshot, player int, halfWidth, halfHeight float64) Viewport {
	v := Viewport{CenterX: w.width / 2, CenterY: w.height / 2, HalfWidth: halfWidth, HalfHeight: halfHeight}
	if a := w.Avatar(player); a != nil {
		v.CenterX, v.CenterY = a.X, a.Y
	}
	dst.Tick, dst.Width, dst.Height = w.tick, w.width, w.height
	dst.Entities = dst.Entities[:0]
	w.viewCells = w.grid.appendViewCells(w.viewCells[:0], v)
	for _, c := range w.viewCells {
		for _, id := range w.grid.cells[c] {
			if e := w.entities[id]; v.Contains(e.X, e.Y) {
				dst.Entities = append(dst.Entities, *e)
			}
		}
	}
	slices.SortFunc(dst.Entities, cmpEntityID)
	return v
}
