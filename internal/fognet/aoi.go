package fognet

import (
	"math/bits"
	"slices"
	"sync"

	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/virtualworld"
)

// This file is the interest-management (AoI) layer of DESIGN.md §14. The
// cloud keeps a per-supernode interest set — the grid cells the fog's
// attached players can see, reported upstream via MsgInterestUpdate — and
// the tick loop buckets each tick's deltas by grid cell once, encodes
// each dirty cell once into a refcounted pooled payload, and enqueues it
// only to the supernodes subscribed to that cell. Fan-out cost becomes
// O(relevant deltas × subscribers), not O(world × supernodes). Supernodes
// that never report interest stay on the legacy full-world MsgUpdateBatch
// stream, so every pre-AoI client keeps working unmodified.

// aoiMargin is the hysteresis margin, in world units, added around a
// player's viewport when a fog computes its interest footprint. Cells are
// entered at viewport+margin and only dropped beyond viewport+2×margin, so
// an avatar oscillating on a cell boundary does not flap its subscription
// (and the keyframe traffic that comes with re-entry). A constant, not a
// setting: the cloud widens a reported footprint by the same margin
// (applyInterest), and the two tiers must agree on it.
const aoiMargin = 64.0

// --- cloud side: per-supernode interest sets and per-tick bucketing ---------

// interestSet is one supernode's cell subscription: a bitmap over the
// world grid. It is immutable once installed on a supernodeConn (updates
// swap in a freshly built set under the cloud mutex), so the tick loop
// may read a captured pointer after releasing the lock.
type interestSet struct {
	// gen is the fog-reported generation; updates that do not advance it
	// are dropped, so a duplicated MsgInterestUpdate can never roll the
	// subscription back.
	gen   uint32
	words []uint64
	count int
}

func newInterestSet(gen uint32, numCells int) *interestSet {
	return &interestSet{gen: gen, words: make([]uint64, (numCells+63)/64)}
}

func (is *interestSet) add(c uint32) {
	w := int(c) / 64
	if w >= len(is.words) {
		return
	}
	bit := uint64(1) << (uint(c) % 64)
	if is.words[w]&bit == 0 {
		is.words[w] |= bit
		is.count++
	}
}

func (is *interestSet) has(c uint32) bool {
	w := int(c) / 64
	return w < len(is.words) && is.words[w]&(uint64(1)<<(uint(c)%64)) != 0
}

// fanSN is the tick loop's capture of one supernode and the interest set
// it had when the tick started (nil = full-world).
type fanSN struct {
	sn       *supernodeConn
	interest *interestSet
}

// keyItem is one pending cell-enter keyframe: supernode sn gains cell
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

// applyInterest installs a fog's reported AoI footprint on its connection
// and schedules cell-enter keyframes for every newly gained cell. The
// reported cell set is widened with the cells around each attached
// player's authoritative avatar position: a fog that just gained a player
// may only know a stale position for it (its replica last saw the avatar
// when the welcome snapshot was cut), and the widening guarantees the
// avatar's real surroundings flow even before the fog's view catches up.
func (s *CloudServer) applyInterest(sn *supernodeConn, iu *protocol.InterestUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	geo := s.world.Grid().Geom()
	if iu.CellSize != geo.CellSize {
		// Geometry mismatch: cell IDs would map to the wrong rectangles.
		// Leave the supernode on the full-world stream.
		return
	}
	if sn.interest != nil && iu.Gen <= sn.interest.gen {
		return // duplicate or reordered update
	}
	ns := newInterestSet(iu.Gen, geo.NumCells())
	for _, c := range iu.Cells {
		ns.add(c)
	}
	halfW := render.ViewHalfWidth + aoiMargin
	halfH := render.ViewHalfHeight + aoiMargin
	for _, p := range iu.Players {
		av := s.world.Avatar(int(p))
		if av == nil {
			continue
		}
		s.aoiCellScratch = geo.AppendCellsInRect(s.aoiCellScratch[:0],
			av.X-halfW, av.Y-halfH, av.X+halfW, av.Y+halfH)
		for _, c := range s.aoiCellScratch {
			ns.add(c)
		}
	}
	// Cell-enter keyframing: a gained cell is seeded with its full entity
	// state on the next tick, so the fog's partial view of it starts
	// complete instead of delta-only. The very first interest update
	// keyframes every subscribed cell — the fog may have resumed with a
	// replica that drifted while it was away, and a redundant keyframe is
	// idempotent (entity versions discard stale state).
	for w, word := range ns.words {
		var oldw uint64
		if sn.interest != nil && w < len(sn.interest.words) {
			oldw = sn.interest.words[w]
		}
		added := word &^ oldw
		for added != 0 {
			b := bits.TrailingZeros64(added)
			added &^= uint64(1) << b
			sn.pendingKey = append(sn.pendingKey, uint32(w*64+b))
		}
	}
	sn.interest = ns
	s.stats.InterestUpdates++
}

// appendCellStateLocked appends a keyframe's payload — one delta per
// entity currently in cell c, sorted by ID — to dst. Caller holds mu.
func (s *CloudServer) appendCellStateLocked(dst []virtualworld.Delta, c uint32) []virtualworld.Delta {
	s.aoiIDScratch = s.world.Grid().AppendCell(s.aoiIDScratch[:0], c)
	for _, id := range s.aoiIDScratch {
		if e := s.world.Entity(id); e != nil {
			dst = append(dst, virtualworld.Delta{ID: id, Entity: *e})
		}
	}
	return dst
}

// --- fog side: footprint computation with hysteresis ------------------------

// fogInterest tracks the cells a fog node subscribes to. Field access
// follows a two-lock discipline: state is mutated only while holding BOTH
// sendMu and the node mutex (compute runs under the node mutex inside a
// sendMu section), so holders of either lock may read it consistently —
// Stats reads under the node mutex, the send path reads after releasing
// it while still inside sendMu.
type fogInterest struct {
	// sendMu serializes whole refresh operations (recompute + send).
	sendMu sync.Mutex
	geo    virtualworld.GridGeom
	ready  bool
	gen    uint32
	// cells/words are the current subscription (ascending list + bitmap).
	cells []uint32
	words []uint64
	// players is the attached-player list sent with the last update.
	players []int32
	// lastTick/dirty gate recomputation: once per applied replica tick,
	// or immediately when the attach set changes. sentOnce is whether any
	// report reached the current cloud connection.
	lastTick uint64
	dirty    bool
	sentOnce bool
	// enterWords/keepWords/newCells/cellScratch are compute scratch;
	// buf is the wire-encode scratch used under the cloud-write mutex.
	enterWords  []uint64
	keepWords   []uint64
	newCells    []uint32
	cellScratch []uint32
	buf         []byte
}

// resetInterestLocked (re)arms the AoI tracker against a freshly seeded
// replica: geometry from the replica's own grid, empty current
// subscription (a new cloud connection starts unsubscribed), and a forced
// recompute. Caller holds f.mu; the next refreshInterest sends.
func (f *FogNode) resetInterestLocked() {
	ai := f.aoi
	if ai == nil {
		return
	}
	ai.geo = f.replica.Grid().Geom()
	ai.ready = true
	ai.cells = ai.cells[:0]
	for i := range ai.words {
		ai.words[i] = 0
	}
	ai.dirty = true
	ai.sentOnce = false
}

// computeInterestLocked recomputes the footprint from the replica's view
// of the attached players' avatars, with enter/keep hysteresis: a cell is
// entered when it overlaps a player's viewport grown by margin, and a
// currently held cell is kept while it still overlaps the viewport grown
// by 2×margin. Returns whether the subscription changed. Caller holds
// f.mu (and, transitively, ai's sendMu — see refreshInterest).
func (f *FogNode) computeInterestLocked() bool {
	ai := f.aoi
	nw := (ai.geo.NumCells() + 63) / 64
	if len(ai.enterWords) != nw {
		ai.enterWords = make([]uint64, nw)
		ai.keepWords = make([]uint64, nw)
	}
	for i := 0; i < nw; i++ {
		ai.enterWords[i] = 0
		ai.keepWords[i] = 0
	}
	if len(ai.words) != nw {
		ai.words = append(ai.words[:0], make([]uint64, nw)...)
	}
	ai.players = ai.players[:0]
	for id := range f.attached {
		ai.players = append(ai.players, id)
	}
	slices.Sort(ai.players)
	enterW := render.ViewHalfWidth + aoiMargin
	enterH := render.ViewHalfHeight + aoiMargin
	keepW := render.ViewHalfWidth + 2*aoiMargin
	keepH := render.ViewHalfHeight + 2*aoiMargin
	mark := func(words []uint64, x, y, hw, hh float64) {
		ai.cellScratch = ai.geo.AppendCellsInRect(ai.cellScratch[:0], x-hw, y-hh, x+hw, y+hh)
		for _, c := range ai.cellScratch {
			words[int(c)/64] |= uint64(1) << (uint(c) % 64)
		}
	}
	for _, id := range ai.players {
		x, y, ok := f.replica.AvatarPos(int(id))
		if !ok {
			// The avatar is not in the replica yet (spawn event still in
			// flight — those are broadcast, so it will arrive). The cloud
			// widens the set server-side from the player list meanwhile.
			continue
		}
		mark(ai.enterWords, x, y, enterW, enterH)
		mark(ai.keepWords, x, y, keepW, keepH)
	}
	changed := false
	ai.newCells = ai.newCells[:0]
	for w := 0; w < nw; w++ {
		nword := ai.enterWords[w] | (ai.words[w] & ai.keepWords[w])
		if nword != ai.words[w] {
			changed = true
		}
		ai.enterWords[w] = nword
		for word := nword; word != 0; {
			b := bits.TrailingZeros64(word)
			word &^= uint64(1) << b
			ai.newCells = append(ai.newCells, uint32(w*64+b))
		}
	}
	if !changed {
		return false
	}
	ai.words, ai.enterWords = ai.enterWords, ai.words
	ai.cells, ai.newCells = ai.newCells, ai.cells
	ai.gen++
	return true
}

// interestDirty marks the footprint stale (the attach set changed) so the
// next refreshInterest recomputes regardless of replica tick. f.aoi is
// set once before the node's goroutines start, so the nil check needs no
// lock.
func (f *FogNode) interestDirty() {
	if f.aoi == nil {
		return
	}
	f.mu.Lock()
	f.aoi.dirty = true
	f.mu.Unlock()
}

// refreshInterest recomputes the AoI footprint and, when it changed (or
// was never reported on this connection), sends it upstream. Throttled to
// once per applied replica tick unless the attach set is dirty. Safe for
// concurrent callers (update loop and player sessions): sendMu serializes
// the whole recompute+send, so the cells/players slices the encoder reads
// after the node mutex is released cannot be swapped underneath it.
func (f *FogNode) refreshInterest() {
	ai := f.aoi
	if ai == nil {
		return
	}
	ai.sendMu.Lock()
	defer ai.sendMu.Unlock()
	f.mu.Lock()
	conn := f.cloud
	if !ai.ready || conn == nil {
		f.mu.Unlock()
		return
	}
	tick := f.replica.Tick()
	if ai.sentOnce && !ai.dirty && tick == ai.lastTick {
		f.mu.Unlock()
		return
	}
	ai.dirty = false
	ai.lastTick = tick
	changed := f.computeInterestLocked()
	if !changed && ai.sentOnce {
		f.mu.Unlock()
		return
	}
	if !changed {
		// First report on this connection, even if the footprint is empty:
		// it moves the supernode off the full-world stream. The generation
		// still has to advance for the cloud to accept it.
		ai.gen++
	}
	f.mu.Unlock()
	iu := protocol.InterestUpdate{Gen: ai.gen, CellSize: ai.geo.CellSize,
		Players: ai.players, Cells: ai.cells}
	// The update shares the connection with heartbeat acks and forwarded
	// actions; one writer at a time.
	f.cloudWMu.Lock()
	werr := sendInto(conn, f.cfg.WriteTimeout, &ai.buf, protocol.MsgInterestUpdate, &iu)
	f.cloudWMu.Unlock()
	if werr != nil {
		return // the update loop's read side will observe the dead conn
	}
	f.noteInterestSent(ai)
}

// noteInterestSent records a successfully shipped interest report.
func (f *FogNode) noteInterestSent(ai *fogInterest) {
	f.mu.Lock()
	ai.sentOnce = true
	f.stats.InterestUpdatesSent++
	f.mu.Unlock()
}
