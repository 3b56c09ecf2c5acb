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

// ViewInto fills dst with the player's view — only the entities inside a
// halfWidth×halfHeight viewport centred on the player's avatar (the world
// centre when the avatar is unknown), sorted by ID — reusing
// dst.Entities' backing array, and returns that viewport. dst carries the
// tick and world dimensions, so it is exactly Snapshot() with everything
// the viewport cannot see left out: rendering either yields the same
// frame. Once dst and the store's scratch have grown to the view's size
// this allocates nothing. A fog's video sessions read it off the replica,
// the cloud's fallback sessions off the authoritative world.
func (s *store) ViewInto(dst *Snapshot, player int, halfWidth, halfHeight float64) Viewport {
	v := Viewport{CenterX: s.width / 2, CenterY: s.height / 2, HalfWidth: halfWidth, HalfHeight: halfHeight}
	if a, ok := s.Avatar(player); ok {
		v.CenterX, v.CenterY = a.X, a.Y
	}
	dst.Tick, dst.Width, dst.Height = s.tick, s.width, s.height
	dst.Entities = dst.Entities[:0]
	s.viewCells = s.grid.appendViewCells(s.viewCells[:0], v)
	for _, c := range s.viewCells {
		for _, id := range s.grid.cells[c] {
			if e := s.entities[id]; v.Contains(e.X, e.Y) {
				dst.Entities = append(dst.Entities, e)
			}
		}
	}
	slices.SortFunc(dst.Entities, cmpEntityID)
	return v
}
