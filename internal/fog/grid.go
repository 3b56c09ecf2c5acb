package fog

import (
	"math"

	"cloudfog/internal/geo"
)

// candidate is one entry of a bounded top-k list ordered by (distance, ID).
type candidate struct {
	s *Supernode
	d float64
}

// offer inserts s at distance d into top, a list of at most cap(top)
// entries kept sorted by (distance, ID). The order is total, so the final
// list does not depend on the order supernodes are offered in.
func offer(top []candidate, s *Supernode, d float64) []candidate {
	k := cap(top)
	if len(top) == k {
		last := top[k-1]
		if d > last.d || (d == last.d && s.ID > last.s.ID) {
			return top
		}
	}
	i := len(top)
	if i < k {
		top = top[:i+1]
	} else {
		i = k - 1
	}
	for i > 0 && (d < top[i-1].d || (d == top[i-1].d && s.ID < top[i-1].s.ID)) {
		top[i] = top[i-1]
		i--
	}
	top[i] = candidate{s: s, d: d}
	return top
}

// cellGrid is a uniform grid over the registered supernodes' locations,
// about one supernode per cell, so a nearest-k query touches the cells
// around the player instead of the whole registry. It is built in one pass
// and never updated: supernodes do not move, and whether one is available
// is read at query time.
type cellGrid struct {
	minX, minY float64
	side       float64
	cols, rows int
	// start[c]..start[c+1] is cell c's range of members; a cell lists its
	// supernodes in ascending ID.
	start   []int32
	members []*Supernode
	// scale is the magnitude of the grid's coordinates, from which the
	// search derives its rounding allowance.
	scale float64
}

// newCellGrid indexes sns, which must be sorted by ID. The cell side comes
// from the bounding box and the count: side² ≈ area / n, but never below
// the longer extent / n, so a registry on a line still gets about n cells.
// A registry without a finite positive extent gets one cell, which makes
// every query a scan of it in ID order.
func newCellGrid(sns []*Supernode) *cellGrid {
	g := &cellGrid{side: 1, cols: 1, rows: 1}
	if n := len(sns); n > 0 {
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, s := range sns {
			p := s.Endpoint.Loc
			minX, maxX = min(minX, p.X), max(maxX, p.X)
			minY, maxY = min(minY, p.Y), max(maxY, p.Y)
		}
		w, h := maxX-minX, maxY-minY
		side := max(math.Sqrt(w*h/float64(n)), max(w, h)/float64(n))
		if side > 0 && !math.IsInf(side, 1) {
			g.side = side
			g.cols = int(w/side) + 1
			g.rows = int(h/side) + 1
		}
		g.minX, g.minY = minX, minY
		g.scale = math.Abs(minX) + math.Abs(minY) + w + h + g.side
	}

	// Counting sort by cell; stable, so each cell keeps the ID order.
	g.start = make([]int32, g.cols*g.rows+1)
	for _, s := range sns {
		g.start[g.cellOf(s.Endpoint.Loc)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	g.members = make([]*Supernode, len(sns))
	for _, s := range sns {
		c := g.cellOf(s.Endpoint.Loc)
		g.members[next[c]] = s
		next[c]++
	}
	return g
}

// axisCell maps a coordinate to its cell index along one axis, clamped
// onto the grid (a query may lie outside the registry's bounding box).
func axisCell(v, lo, side float64, n int) int {
	f := (v - lo) / side
	if !(f >= 0) { // also NaN
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

func (g *cellGrid) cellOf(p geo.Point) int {
	return axisCell(p.Y, g.minY, g.side, g.rows)*g.cols + axisCell(p.X, g.minX, g.side, g.cols)
}

// nearest fills top (empty, with capacity k > 0) with the k available
// supernodes closest to q under the (distance, ID) order. It visits the
// grid ring by ring outward from q's cell and stops once k are held and
// every unvisited cell is strictly farther than the k-th: a supernode at
// exactly the k-th distance may still win on ID.
func (g *cellGrid) nearest(q geo.Point, top []candidate) []candidate {
	k := cap(top)
	cx := axisCell(q.X, g.minX, g.side, g.cols)
	cy := axisCell(q.Y, g.minY, g.side, g.rows)
	// Cell membership and the edges below are rounded; a bound shaved by
	// far more than that error can only make the search visit more.
	slack := 1e-9 * (g.scale + math.Abs(q.X) + math.Abs(q.Y))
	for r := 0; ; r++ {
		x0, x1, y0, y1 := cx-r, cx+r, cy-r, cy+r
		for y := max(y0, 0); y <= min(y1, g.rows-1); y++ {
			row := y * g.cols
			if y == y0 || y == y1 {
				for x := max(x0, 0); x <= min(x1, g.cols-1); x++ {
					top = g.visit(row+x, q, top)
				}
				continue
			}
			if x0 >= 0 {
				top = g.visit(row+x0, q, top)
			}
			if x1 < g.cols {
				top = g.visit(row+x1, q, top)
			}
		}
		// Every unvisited cell lies in a strip beyond one of the ring's
		// edges that still has grid on its far side.
		bound := math.Inf(1)
		if x0 > 0 {
			bound = min(bound, q.X-(g.minX+float64(x0)*g.side))
		}
		if x1 < g.cols-1 {
			bound = min(bound, g.minX+float64(x1+1)*g.side-q.X)
		}
		if y0 > 0 {
			bound = min(bound, q.Y-(g.minY+float64(y0)*g.side))
		}
		if y1 < g.rows-1 {
			bound = min(bound, g.minY+float64(y1+1)*g.side-q.Y)
		}
		if math.IsInf(bound, 1) || (len(top) == k && bound-slack > top[k-1].d) {
			return top
		}
	}
}

func (g *cellGrid) visit(c int, q geo.Point, top []candidate) []candidate {
	for _, s := range g.members[g.start[c]:g.start[c+1]] {
		if s.Available() <= 0 {
			continue
		}
		top = offer(top, s, geo.Distance(q, s.Endpoint.Loc))
	}
	return top
}
