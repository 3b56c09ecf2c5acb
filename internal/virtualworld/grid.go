package virtualworld

import (
	"math"
	"sort"
)

// This file is the uniform-grid spatial index behind interest management:
// the world keeps every entity bucketed into a fixed grid of square cells,
// maintained incrementally at each mutation (no per-tick rebuild), so the
// cloud can answer "which entities live in cell c" and "which cells does
// this viewport overlap" in time proportional to the answer, not to the
// world. Cells are the unit of the AoI-filtered update stream: deltas are
// bucketed by cell, supernodes subscribe to cell sets, and a supernode
// that gains a cell is seeded with the cell's full state (DESIGN.md §14).

// DefaultCellSize is the grid cell edge length in world units. It is a
// protocol-visible constant: a fog's replica indexes keyframed cells with
// the same geometry the cloud buckets deltas with, and an InterestUpdate
// carrying a different cell size is rejected (the supernode stays on the
// full-world stream). 64 units ≈ half a viewport half-width, so a player
// footprint is a handful of cells and one avatar step (MoveSpeed=8) can
// never out-run a one-cell hysteresis margin in a single tick.
const DefaultCellSize = 64.0

// CellNone is the sentinel cell ID for deltas with no position: removals
// and membership (session) events. They are broadcast to every subscribed
// supernode regardless of its interest set — removals are cheap to apply,
// and skipping them would leave ghosts in cells the supernode never
// re-enters.
const CellNone = ^uint32(0)

// GridGeom is the pure geometry of a grid: world dimensions quantized
// into Cols×Rows square cells of edge CellSize. It is value-copyable and
// shared verbatim by the cloud (bucketing) and the fogs (footprint
// computation), so a cell ID means the same rectangle on both sides.
type GridGeom struct {
	// CellSize is the cell edge length in world units.
	CellSize float64
	// Cols, Rows are the grid dimensions in cells.
	Cols, Rows int
	// Width, Height are the world dimensions the grid covers.
	Width, Height float64
}

// Geometry builds the grid geometry for a world of the given size.
// Non-positive dimensions take the world defaults; a non-positive cell
// size takes DefaultCellSize. The last column/row absorbs any remainder
// (and the world's max edge, which clampPos can produce).
func Geometry(width, height, cellSize float64) GridGeom {
	if width <= 0 {
		width = DefaultWidth
	}
	if height <= 0 {
		height = DefaultHeight
	}
	if cellSize <= 0 {
		cellSize = DefaultCellSize
	}
	cols := int(math.Ceil(width / cellSize))
	rows := int(math.Ceil(height / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return GridGeom{CellSize: cellSize, Cols: cols, Rows: rows, Width: width, Height: height}
}

// NumCells returns the total cell count.
func (g GridGeom) NumCells() int { return g.Cols * g.Rows }

// CellOf maps a position to its cell ID (row-major). Positions are
// clamped to the world, and the max edge folds into the last column/row,
// matching Region.Contains' max-exclusive-except-world-edge convention.
func (g GridGeom) CellOf(x, y float64) uint32 {
	col := int(x / g.CellSize)
	if col < 0 {
		col = 0
	} else if col >= g.Cols {
		col = g.Cols - 1
	}
	row := int(y / g.CellSize)
	if row < 0 {
		row = 0
	} else if row >= g.Rows {
		row = g.Rows - 1
	}
	return uint32(row*g.Cols + col)
}

// CellRect returns the rectangle a cell covers. The max edge is exclusive
// except for the last column/row, which extends to the world edge so the
// union of all cells is exactly the world.
func (g GridGeom) CellRect(c uint32) (minX, minY, maxX, maxY float64) {
	col := int(c) % g.Cols
	row := int(c) / g.Cols
	minX = float64(col) * g.CellSize
	minY = float64(row) * g.CellSize
	maxX = minX + g.CellSize
	maxY = minY + g.CellSize
	if col == g.Cols-1 {
		maxX = g.Width
	}
	if row == g.Rows-1 {
		maxY = g.Height
	}
	return minX, minY, maxX, maxY
}

// AppendCellsInRect appends (in ascending cell-ID order) every cell
// overlapping the rectangle to dst and returns the extended slice. The
// rectangle is clamped to the world; with enough capacity in dst this
// does not allocate.
func (g GridGeom) AppendCellsInRect(dst []uint32, minX, minY, maxX, maxY float64) []uint32 {
	if maxX < minX || maxY < minY {
		return dst
	}
	c0 := int(math.Max(0, minX) / g.CellSize)
	r0 := int(math.Max(0, minY) / g.CellSize)
	c1 := int(math.Min(g.Width, maxX) / g.CellSize)
	r1 := int(math.Min(g.Height, maxY) / g.CellSize)
	if c0 >= g.Cols {
		c0 = g.Cols - 1
	}
	if r0 >= g.Rows {
		r0 = g.Rows - 1
	}
	if c1 >= g.Cols {
		c1 = g.Cols - 1
	}
	if r1 >= g.Rows {
		r1 = g.Rows - 1
	}
	for row := r0; row <= r1; row++ {
		base := uint32(row * g.Cols)
		for col := c0; col <= c1; col++ {
			dst = append(dst, base+uint32(col))
		}
	}
	return dst
}

// Grid is the incrementally maintained spatial index: per-cell entity ID
// lists, kept sorted so every read is deterministic. It is derived state —
// a function of the entity positions alone — which is why checkpoints do
// not carry it: Restore rebuilds a bit-identical grid from the snapshot
// (asserted by TestRestoreRebuildsGridBitIdentical).
type Grid struct {
	geo   GridGeom
	cells [][]EntityID
	count int
}

// NewGrid creates an empty grid with the given geometry.
func NewGrid(geo GridGeom) *Grid {
	return &Grid{geo: geo, cells: make([][]EntityID, geo.NumCells())}
}

// Geom returns the grid geometry.
func (g *Grid) Geom() GridGeom { return g.geo }

// Len returns the number of indexed entities.
func (g *Grid) Len() int { return g.count }

// CellLen returns the number of entities in a cell.
func (g *Grid) CellLen(c uint32) int {
	if int(c) >= len(g.cells) {
		return 0
	}
	return len(g.cells[c])
}

// AppendCell appends the cell's entity IDs (ascending) to dst and returns
// the extended slice; with enough capacity it does not allocate.
func (g *Grid) AppendCell(dst []EntityID, c uint32) []EntityID {
	if int(c) >= len(g.cells) {
		return dst
	}
	return append(dst, g.cells[c]...)
}

// Insert indexes an entity at a position.
func (g *Grid) Insert(id EntityID, x, y float64) {
	c := g.geo.CellOf(x, y)
	cell := g.cells[c]
	i := sort.Search(len(cell), func(i int) bool { return cell[i] >= id })
	if i < len(cell) && cell[i] == id {
		return
	}
	cell = append(cell, 0)
	copy(cell[i+1:], cell[i:])
	cell[i] = id
	g.cells[c] = cell
	g.count++
}

// Remove unindexes an entity; x, y must be its indexed position.
func (g *Grid) Remove(id EntityID, x, y float64) {
	c := g.geo.CellOf(x, y)
	cell := g.cells[c]
	i := sort.Search(len(cell), func(i int) bool { return cell[i] >= id })
	if i >= len(cell) || cell[i] != id {
		return
	}
	g.cells[c] = append(cell[:i], cell[i+1:]...)
	g.count--
}

// Move re-indexes an entity that moved from (ox, oy) to (nx, ny). Moves
// within one cell are free; cross-cell moves are one sorted removal plus
// one sorted insertion.
func (g *Grid) Move(id EntityID, ox, oy, nx, ny float64) {
	oc := g.geo.CellOf(ox, oy)
	nc := g.geo.CellOf(nx, ny)
	if oc == nc {
		return
	}
	g.Remove(id, ox, oy)
	g.Insert(id, nx, ny)
}

// Digest folds the full grid contents (cell by cell, IDs in order) into
// an FNV-1a hash — the bit-identity fingerprint restore tests compare.
func (g *Grid) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	for c, cell := range g.cells {
		if len(cell) == 0 {
			continue
		}
		mix(uint64(c))
		mix(uint64(len(cell)))
		for _, id := range cell {
			mix(uint64(id))
		}
	}
	return h
}
