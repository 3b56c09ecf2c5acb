package fognet

import (
	"slices"

	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/virtualworld"
)

// This file is the interest-management (AoI) layer of DESIGN.md §14. A fog
// names its attached players upstream (MsgInterestUpdate); the cloud's tick
// loop derives each such supernode's interest set — the grid cells around
// those players' authoritative avatars — in the tick that moves them,
// buckets the tick's deltas by grid cell once, encodes each dirty cell once
// into a refcounted pooled payload, and enqueues it only to the supernodes
// subscribed to that cell. Fan-out cost becomes O(relevant deltas ×
// subscribers), not O(world × supernodes). Supernodes that never report
// interest stay on the legacy full-world MsgUpdateBatch stream, so every
// pre-AoI client keeps working unmodified.

// aoiMargin is the hysteresis margin, in world units, around a player's
// viewport: the tick loop enters a cell at viewport+margin around the
// authoritative avatar and drops it only beyond viewport+2×margin, so an
// avatar oscillating on a cell boundary does not flap its subscription (and
// the keyframe traffic that comes with re-entry).
const aoiMargin = 64.0

// --- the fog's part: naming its players ---------------------------------------

// reportInterest names the node's attached players to the cloud, which
// derives the AoI subscription from their avatars; sent on every
// (re)connect and attach-set change when cfg.AoI is set. Two sessions may
// write their reports out of order: the cloud keeps the higher Gen, which
// is the one built later.
func (f *FogNode) reportInterest() {
	if !f.cfg.AoI {
		return
	}
	f.mu.Lock()
	conn := f.cloud
	f.interestGen++
	iu := protocol.InterestUpdate{Gen: f.interestGen, CellSize: f.replica.Grid().Geom().CellSize,
		Players: make([]int32, 0, len(f.attached))}
	for id := range f.attached {
		iu.Players = append(iu.Players, id)
	}
	slices.Sort(iu.Players)
	f.mu.Unlock()
	f.cloudWMu.Lock()
	err := sendInto(conn, f.cfg.WriteTimeout, &f.cloudBuf, protocol.MsgInterestUpdate, &iu)
	f.cloudWMu.Unlock()
	if err != nil {
		return // the update loop's read side will observe the dead conn
	}
	f.mu.Lock()
	f.stats.InterestUpdatesSent++
	f.mu.Unlock()
}

// --- the cloud's part: interest sets and per-tick bucketing --------------------

// interestSet is one supernode's cell subscription: a bitmap over the
// world grid. It is tick-loop state, updated in place: only tickOnce writes
// it, under mu, so fanOut reads it on the same goroutine after the unlock
// and everyone else reads it under mu.
type interestSet struct {
	words []uint64
}

func newInterestSet(numCells int) *interestSet {
	return &interestSet{words: make([]uint64, (numCells+63)/64)}
}

// add subscribes cell c and reports whether it is new to the set.
func (is *interestSet) add(c uint32) bool {
	w := int(c) / 64
	if w >= len(is.words) {
		return false
	}
	bit := uint64(1) << (uint(c) % 64)
	if is.words[w]&bit != 0 {
		return false
	}
	is.words[w] |= bit
	return true
}

func (is *interestSet) has(c uint32) bool {
	w := int(c) / 64
	return w < len(is.words) && is.words[w]&(uint64(1)<<(uint(c)%64)) != 0
}

// keyItem is one cell-enter keyframe of this tick: supernode sn gained cell
// cell, and keyDeltas[off:off+n] holds the cell's full entity state.
type keyItem struct {
	sn     *supernodeConn
	cell   uint32
	off, n int32
}

// aoiPlan is the tick loop's per-cell bucketing scratch: one pass over
// the tick's deltas scatters their indices into cell-major order, so each
// dirty cell's deltas can be gathered contiguously on demand. Only
// 4-byte indices move during the O(deltas) scatter; the ~90-byte Delta
// structs are copied solely for cells that actually have a subscriber.
// Everything is reused across ticks — zero steady-state allocations.
type aoiPlan struct {
	geo virtualworld.GridGeom
	// src is the delta slice build was last called with; idx entries point
	// into it. Valid until the next build.
	src []virtualworld.Delta
	// count is a per-cell delta counter, zeroed via the dirty list after
	// every build (never rescanned in full).
	count []int32
	// slot maps a dirty cell to its index in ranges; valid only for cells
	// in the current dirty list.
	slot   []int32
	dirty  []uint32
	ranges []cellRange
	// idx holds indices into src for the tick's positional deltas,
	// scattered cell-major.
	idx []int32
	// cellID is per-delta scratch: the cell each positional delta maps to
	// (CellNone for global-bucket deltas), computed in the counting pass so
	// the scatter pass runs over 4-byte entries instead of re-deriving
	// cells from the ~90-byte delta records.
	cellID []uint32
	// gather is cellDeltas's reusable output slice; each call overwrites
	// the previous one's contents.
	gather []virtualworld.Delta
	// global holds the position-less deltas — removals and session
	// (membership) events — broadcast to every subscriber under the
	// virtualworld.CellNone sentinel. Removals carry no position, and
	// spawn events must reach a fog before it can possibly subscribe to
	// the newcomer's cell.
	global []virtualworld.Delta
}

type cellRange struct {
	cell  uint32
	start int32
	n     int32
}

// build buckets one tick's deltas. The first nSession deltas are session
// events (the cloud folds membership changes in ahead of Step's output)
// and join the global bucket along with every removal; the rest land in
// the cell their post-change position maps to.
func (p *aoiPlan) build(geo virtualworld.GridGeom, deltas []virtualworld.Delta, nSession int) {
	if p.geo != geo || len(p.count) != geo.NumCells() {
		p.geo = geo
		p.count = make([]int32, geo.NumCells())
		p.slot = make([]int32, geo.NumCells())
	}
	p.src = deltas
	p.dirty = p.dirty[:0]
	p.ranges = p.ranges[:0]
	p.global = p.global[:0]
	if cap(p.cellID) < len(deltas) {
		p.cellID = make([]uint32, len(deltas))
	} else {
		p.cellID = p.cellID[:len(deltas)]
	}
	for i := range deltas {
		d := &deltas[i]
		if i < nSession || d.Removed {
			p.global = append(p.global, *d)
			p.cellID[i] = virtualworld.CellNone
			continue
		}
		c := geo.CellOf(d.Entity.X, d.Entity.Y)
		p.cellID[i] = c
		if p.count[c] == 0 {
			p.dirty = append(p.dirty, c)
		}
		p.count[c]++
	}
	// p.dirty keeps first-touch order. That is already deterministic (the
	// delta stream is the deterministic Step output), and cells partition
	// the entities, so emission order across cells carries no semantics —
	// sorting ~every-occupied-cell each tick would be the single largest
	// cost of the whole fan-out at large worlds.
	total := int32(0)
	for i, c := range p.dirty {
		p.ranges = append(p.ranges, cellRange{cell: c, start: total})
		p.slot[c] = int32(i)
		total += p.count[c]
	}
	if cap(p.idx) < int(total) {
		p.idx = make([]int32, total)
	} else {
		p.idx = p.idx[:total]
	}
	for i, c := range p.cellID {
		if c == virtualworld.CellNone {
			continue
		}
		r := &p.ranges[p.slot[c]]
		p.idx[r.start+r.n] = int32(i)
		r.n++
	}
	for _, c := range p.dirty {
		p.count[c] = 0
	}
}

// numDirty returns how many cells received deltas this tick.
func (p *aoiPlan) numDirty() int { return len(p.ranges) }

// cell returns the i-th dirty cell's ID without gathering its deltas —
// the tick loop checks for subscribers first and only pays the gather for
// cells somebody watches.
func (p *aoiPlan) cell(i int) uint32 { return p.ranges[i].cell }

// cellDeltas returns the i-th dirty cell and its deltas, gathered into a
// scratch slice reused (and overwritten) by the next call. The gathered
// order preserves the delta stream's order — Step emits deltas sorted by
// entity ID, and the scatter is order-preserving. Callers must finish
// with the slice before asking for another cell; the tick loop encodes
// each cell immediately, so this never bites.
func (p *aoiPlan) cellDeltas(i int) (uint32, []virtualworld.Delta) {
	r := p.ranges[i]
	if cap(p.gather) < int(r.n) {
		p.gather = make([]virtualworld.Delta, r.n)
	} else {
		p.gather = p.gather[:r.n]
	}
	for j, di := range p.idx[r.start : r.start+r.n] {
		p.gather[j] = p.src[di]
	}
	return r.cell, p.gather
}

// applyInterest records a fog's interest report: the players whose
// authoritative avatars the tick loop derives the supernode's subscription
// from, starting with its next tick. A report cut on another grid (cell IDs
// would map to the wrong rectangles) leaves the supernode on the full-world
// stream; one that does not advance Gen is a duplicate or was overtaken by a
// newer one; one from an unregistered supernode is too late.
func (s *CloudServer) applyInterest(sn *supernodeConn, iu *protocol.InterestUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if iu.CellSize != s.world.Grid().Geom().CellSize || iu.Gen <= sn.interestGen || s.supernodes[sn.id] != sn {
		return
	}
	sn.players = append(sn.players[:0], iu.Players...)
	sn.interestGen = iu.Gen
	s.stats.InterestUpdates++
}

// recomputeInterestLocked is where every AoI subscription is decided: from
// the authoritative avatars of sn's listed players, right after every Step.
// A cell enters at viewport+aoiMargin around an avatar and stays while it
// overlaps viewport+2×aoiMargin around one; every gained cell is keyframed
// in this same tick. The first recompute gains every cell — a resumed fog's
// replica may have drifted while it was away, and a redundant keyframe is
// idempotent. The cost is a few cell-rect walks per listed player, well
// under a microsecond each (DESIGN.md §14). Caller holds mu.
func (s *CloudServer) recomputeInterestLocked(sn *supernodeConn, geo virtualworld.GridGeom) {
	is := sn.interest
	if is == nil {
		is = newInterestSet(geo.NumCells())
		sn.interest = is
	}
	if len(s.aoiKeep) != len(is.words) {
		s.aoiKeep = make([]uint64, len(is.words))
	} else {
		clear(s.aoiKeep)
	}
	for _, p := range sn.players {
		for _, c := range s.viewCellsLocked(geo, p, 2*aoiMargin) {
			s.aoiKeep[c/64] |= 1 << (c % 64)
		}
	}
	for w := range is.words {
		is.words[w] &= s.aoiKeep[w]
	}
	for _, p := range sn.players {
		for _, c := range s.viewCellsLocked(geo, p, aoiMargin) {
			if is.add(c) {
				s.keyframeLocked(sn, c)
			}
		}
	}
}

// viewCellsLocked lists the cells a player's viewport grown by margin
// covers around its authoritative avatar — none without an avatar — in
// scratch the next call reuses. Caller holds mu.
func (s *CloudServer) viewCellsLocked(geo virtualworld.GridGeom, player int32, margin float64) []uint32 {
	s.aoiCellScratch = s.aoiCellScratch[:0]
	if av, ok := s.world.Avatar(int(player)); ok {
		hw, hh := render.ViewHalfWidth+margin, render.ViewHalfHeight+margin
		s.aoiCellScratch = geo.AppendCellsInRect(s.aoiCellScratch, av.X-hw, av.Y-hh, av.X+hw, av.Y+hh)
	}
	return s.aoiCellScratch
}

// keyframeLocked schedules a cell-enter keyframe for this tick's fan-out:
// the cell's full post-Step entity population, sorted by ID, so the fog's
// partial view of the cell starts complete instead of delta-only. Caller
// holds mu.
func (s *CloudServer) keyframeLocked(sn *supernodeConn, c uint32) {
	off := int32(len(s.keyDeltas))
	s.aoiIDScratch = s.world.Grid().AppendCell(s.aoiIDScratch[:0], c)
	for _, id := range s.aoiIDScratch {
		if e, ok := s.world.Entity(id); ok {
			s.keyDeltas = append(s.keyDeltas, virtualworld.Delta{ID: id, Entity: e})
		}
	}
	s.keyPlan = append(s.keyPlan, keyItem{sn: sn, cell: c, off: off, n: int32(len(s.keyDeltas)) - off})
	s.stats.KeyframeCells++
}
