package virtualworld

import "math"

// Viewport is a player's view into the world: the basis of interest
// management ("renders game video for n_i based on n_i's viewing position
// and angle") and of the view-dependent work supernodes do.
type Viewport struct {
	// CenterX, CenterY is the view center (usually the avatar position).
	CenterX, CenterY float64
	// HalfWidth, HalfHeight are the view extents.
	HalfWidth, HalfHeight float64
}

// Contains reports whether an entity position is visible.
func (v Viewport) Contains(x, y float64) bool {
	return math.Abs(x-v.CenterX) <= v.HalfWidth && math.Abs(y-v.CenterY) <= v.HalfHeight
}

// AppendVisibleEntities appends the snapshot's entities inside the
// viewport to dst and returns the extended slice; with enough capacity it
// does not allocate. The renderer's per-frame culling uses this with a
// reused scratch slice.
func AppendVisibleEntities(dst []Entity, s Snapshot, v Viewport) []Entity {
	for _, e := range s.Entities {
		if v.Contains(e.X, e.Y) {
			dst = append(dst, e)
		}
	}
	return dst
}
