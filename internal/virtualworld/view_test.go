package virtualworld_test

import (
	"slices"
	"testing"

	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	vw "cloudfog/internal/virtualworld"
)

// The view query's contract is stated against the path it replaced, kept
// here as the oracle: copy everything (Snapshot), find the avatar by
// scanning (render.ViewportFor), cull by scanning (AppendVisibleEntities).
// ViewInto must return the same viewport and the same entities, and a
// frame rendered from it must be pixel-identical.

// viewOracle is what the full-copy path shows a player.
func viewOracle(full vw.Snapshot, player int) (vw.Viewport, []vw.Entity) {
	vp := render.ViewportFor(full, player)
	return vp, vw.AppendVisibleEntities(nil, full, vp)
}

// viewSourceUnderTest is the part of Replica and World the checks need.
type viewSourceUnderTest interface {
	Snapshot() vw.Snapshot
	ViewInto(dst *vw.Snapshot, player int, halfWidth, halfHeight float64) vw.Viewport
	Grid() *vw.Grid
}

// viewChecker holds the reused buffers of one test run, so the view
// snapshot really is refilled in place from op to op.
type viewChecker struct {
	view     vw.Snapshot
	renderer *render.Renderer
	fa, fb   *render.Frame
}

func newViewChecker() *viewChecker {
	r := render.NewRenderer(render.ResolutionForLevel(1))
	return &viewChecker{renderer: r, fa: render.NewFrame(r.Resolution()), fb: render.NewFrame(r.Resolution())}
}

// check compares src's view of every listed player with the oracle, and
// src's incrementally maintained grid with one rebuilt from its snapshot.
func (vc *viewChecker) check(t *testing.T, where string, src viewSourceUnderTest, players []int) {
	t.Helper()
	full := src.Snapshot()
	rebuilt := vw.NewGrid(src.Grid().Geom())
	for _, e := range full.Entities {
		rebuilt.Insert(e.ID, e.X, e.Y)
	}
	if got, want := src.Grid().Digest(), rebuilt.Digest(); got != want || src.Grid().Len() != len(full.Entities) {
		t.Fatalf("%s: grid digest %x (len %d), rebuilt from snapshot %x (len %d)",
			where, got, src.Grid().Len(), want, len(full.Entities))
	}
	for _, p := range players {
		wantVP, want := viewOracle(full, p)
		gotVP := src.ViewInto(&vc.view, p, render.ViewHalfWidth, render.ViewHalfHeight)
		if gotVP != wantVP {
			t.Fatalf("%s: player %d viewport %+v, oracle %+v", where, p, gotVP, wantVP)
		}
		if vc.view.Tick != full.Tick || vc.view.Width != full.Width || vc.view.Height != full.Height {
			t.Fatalf("%s: player %d view header tick=%d %gx%g, snapshot tick=%d %gx%g", where, p,
				vc.view.Tick, vc.view.Width, vc.view.Height, full.Tick, full.Width, full.Height)
		}
		if !slices.Equal(vc.view.Entities, want) {
			t.Fatalf("%s: player %d view has %d entities, oracle %d\nview:   %+v\noracle: %+v",
				where, p, len(vc.view.Entities), len(want), vc.view.Entities, want)
		}
		// A renderer that still derives the viewport from the snapshot it
		// is handed must land on the same one.
		if vp := render.ViewportFor(vc.view, p); vp != wantVP {
			t.Fatalf("%s: player %d ViewportFor(view) = %+v, oracle %+v", where, p, vp, wantVP)
		}
		vc.renderer.RenderInto(full, wantVP, vc.fa)
		vc.renderer.RenderInto(vc.view, gotVP, vc.fb)
		if !vc.fa.Equal(vc.fb) || vc.fa.Tick != vc.fb.Tick {
			t.Fatalf("%s: player %d frame from view differs from frame from snapshot (%.4f of pixels)",
				where, p, vc.fa.DiffFraction(vc.fb))
		}
	}
}

// viewPlayers are the owners the drivers use; their avatars have
// ID == owner, so an owner never has two avatars (the invariant the
// byOwner index and ViewportFor's scan agree under). 99 never has one.
var viewPlayers = []int{1, 2, 3, 4, 5, 99}

const (
	viewNumAvatars = 5
	viewMaxID      = 160
)

// viewGen draws entities and positions that sit where the view query can
// go wrong: world edges and corners, cell boundaries, and exactly on a
// viewport's edge.
type viewGen struct {
	r             *rng.Rand
	width, height float64
	version       uint32
	// anchors are the last positions given to avatars, so other entities
	// can be placed exactly ±half-extent away from a view centre.
	anchors [][2]float64
}

func (g *viewGen) coord(max float64) float64 {
	switch g.r.Intn(8) {
	case 0:
		return 0
	case 1:
		return max
	case 2:
		return vw.DefaultCellSize * float64(g.r.Intn(int(max/vw.DefaultCellSize)+1))
	default:
		return g.r.Uniform(0, max)
	}
}

func (g *viewGen) pos() (x, y float64) {
	if len(g.anchors) > 0 && g.r.Intn(4) == 0 {
		a := g.anchors[g.r.Intn(len(g.anchors))]
		dx := []float64{-render.ViewHalfWidth, 0, render.ViewHalfWidth}[g.r.Intn(3)]
		dy := []float64{-render.ViewHalfHeight, 0, render.ViewHalfHeight}[g.r.Intn(3)]
		x, y = a[0]+dx, a[1]+dy
		if x >= 0 && x <= g.width && y >= 0 && y <= g.height {
			return x, y
		}
	}
	return g.coord(g.width), g.coord(g.height)
}

// entity draws a fresh state for id; IDs 1..viewNumAvatars are avatars.
func (g *viewGen) entity(id vw.EntityID) vw.Entity {
	g.version++
	e := vw.Entity{ID: id, Kind: vw.KindNPC, Owner: -1, HP: int16(g.r.Intn(vw.MaxHP + 1)),
		State: uint8(g.r.Intn(4)), Version: g.version}
	e.X, e.Y = g.pos()
	switch {
	case id <= viewNumAvatars:
		e.Kind, e.Owner = vw.KindAvatar, int(id)
		g.anchors = append(g.anchors, [2]float64{e.X, e.Y})
	case id%3 == 0:
		e.Kind, e.HP = vw.KindItem, 0
	}
	return e
}

func (g *viewGen) randomID() vw.EntityID { return vw.EntityID(g.r.Intn(viewMaxID) + 1) }

// deltas draws one batch of updates, stale updates and removals.
func (g *viewGen) deltas(n int) []vw.Delta {
	out := make([]vw.Delta, 0, n)
	for i := 0; i < n; i++ {
		id := g.randomID()
		switch g.r.Intn(6) {
		case 0:
			out = append(out, vw.Delta{ID: id, Removed: true})
		case 1:
			e := g.entity(id)
			e.Version = 1 // stale unless the entity is new
			out = append(out, vw.Delta{ID: id, Entity: e})
		default:
			out = append(out, vw.Delta{ID: id, Entity: g.entity(id)})
		}
	}
	return out
}

// snapshot draws a full population, sorted by ID, for Seed.
func (g *viewGen) snapshot(tick uint64) vw.Snapshot {
	s := vw.Snapshot{Tick: tick, Width: g.width, Height: g.height}
	for id := vw.EntityID(1); id <= viewMaxID; id++ {
		if id > viewNumAvatars && g.r.Intn(3) == 0 || id <= viewNumAvatars && g.r.Intn(5) == 0 {
			continue
		}
		s.Entities = append(s.Entities, g.entity(id))
	}
	return s
}

// cellKeyframe draws a keyframe for cell c the way the cloud builds one —
// the cell's complete population in ID order — from the replica's current
// in-cell entities with some dropped (removed while unsubscribed), some
// refreshed in place, and some newcomers.
func (g *viewGen) cellKeyframe(rep *vw.Replica, c uint32) []vw.Delta {
	geo := rep.Grid().Geom()
	minX, minY, maxX, maxY := geo.CellRect(c)
	inCell := func(e vw.Entity) vw.Entity {
		// Stay strictly inside: the max edge belongs to the next cell.
		e.X = minX + (maxX-minX)*g.r.Uniform(0, 0.999)
		e.Y = minY + (maxY-minY)*g.r.Uniform(0, 0.999)
		return e
	}
	var out []vw.Delta
	present := map[vw.EntityID]bool{}
	for _, id := range rep.Grid().AppendCell(nil, c) {
		present[id] = true
		switch g.r.Intn(3) {
		case 0: // gone
		case 1:
			e, _ := rep.Entity(id)
			out = append(out, vw.Delta{ID: id, Entity: e})
		default:
			out = append(out, vw.Delta{ID: id, Entity: inCell(g.entity(id))})
		}
	}
	for i := g.r.Intn(4); i > 0; i-- {
		id := g.randomID()
		if _, known := rep.Entity(id); known || present[id] {
			continue
		}
		present[id] = true
		out = append(out, vw.Delta{ID: id, Entity: inCell(g.entity(id))})
	}
	slices.SortFunc(out, func(a, b vw.Delta) int { return int(a.ID) - int(b.ID) })
	return out
}

// FuzzReplicaViewParity drives a replica through random Seed / Apply /
// ApplyCellKeyframe / removal sequences and checks, after every one, the
// view of every player (and of a player with no avatar) against the
// oracle, and the replica's grid against a rebuild.
func FuzzReplicaViewParity(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nOps uint8) {
		r := rng.New(seed).SplitNamed("replica-view")
		// Not multiples of the cell size: the last column and row are
		// partial cells.
		g := &viewGen{r: r, width: 300 + float64(r.Intn(900)), height: 250 + float64(r.Intn(700))}
		rep := vw.NewReplica(g.width, g.height)
		vc := newViewChecker()
		vc.check(t, "empty", rep, viewPlayers)
		tick := uint64(1)
		rep.Seed(g.snapshot(tick))
		vc.check(t, "seed", rep, viewPlayers)
		for op := 0; op < int(nOps); op++ {
			tick++
			var where string
			switch r.Intn(10) {
			case 0:
				where = "seed"
				g.width, g.height = 300+float64(r.Intn(900)), 250+float64(r.Intn(700))
				g.anchors = g.anchors[:0]
				rep.Seed(g.snapshot(tick))
			case 1, 2, 3:
				where = "keyframe"
				c := uint32(r.Intn(rep.Grid().Geom().NumCells()))
				rep.ApplyCellKeyframe(tick, c, g.cellKeyframe(rep, c))
			case 4:
				where = "avatar removal"
				rep.Apply(tick, []vw.Delta{{ID: vw.EntityID(r.Intn(viewNumAvatars) + 1), Removed: true}})
			default:
				where = "apply"
				rep.Apply(tick, g.deltas(1+r.Intn(24)))
			}
			vc.check(t, where, rep, viewPlayers)
		}
	})
}

// FuzzWorldViewParity is the same property over the authoritative world,
// mutated by Step (moves, kills, pickups, respawns), joins, departures
// and delta-log replay (SetEntity / RemoveEntity).
func FuzzWorldViewParity(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(40))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nOps uint8) {
		r := rng.New(seed).SplitNamed("world-view")
		g := &viewGen{r: r, width: 300 + float64(r.Intn(500)), height: 250 + float64(r.Intn(400))}
		w := vw.New(g.width, g.height)
		for p := 1; p <= viewNumAvatars; p++ {
			x, y := g.pos()
			w.SpawnAvatar(p, x, y)
			g.anchors = append(g.anchors, [2]float64{x, y})
		}
		for i := 0; i < 120; i++ {
			x, y := g.pos()
			if i%3 == 0 {
				w.SpawnItem(x, y)
			} else {
				w.SpawnNPC(x, y)
			}
		}
		vc := newViewChecker()
		vc.check(t, "spawn", w, viewPlayers)
		for op := 0; op < int(nOps); op++ {
			var where string
			switch r.Intn(8) {
			case 0:
				where = "leave"
				w.RemovePlayer(1 + r.Intn(viewNumAvatars))
			case 1:
				where = "join"
				x, y := g.pos()
				w.SpawnAvatar(1+r.Intn(viewNumAvatars), x, y)
			case 2:
				where = "replay"
				id := vw.EntityID(viewNumAvatars + 1 + r.Intn(120))
				if r.Intn(2) == 0 {
					w.RemoveEntity(id)
				} else if e, ok := w.Entity(id); ok {
					e.X, e.Y = g.pos()
					e.Version++
					w.SetEntity(e)
				}
			default:
				where = "step"
				var actions []vw.Action
				for p := 1; p <= viewNumAvatars; p++ {
					x, y := g.pos()
					target := vw.EntityID(r.Intn(int(w.NextID())) + 1)
					kind := []vw.ActionKind{vw.ActMove, vw.ActMove, vw.ActAttack, vw.ActPickUp, vw.ActEmote}[r.Intn(5)]
					actions = append(actions, vw.Action{Player: p, Kind: kind, TargetX: x, TargetY: y,
						TargetEntity: target, StateTag: uint8(r.Intn(4))})
				}
				w.Step(actions)
			}
			vc.check(t, where, w, viewPlayers)
		}
	})
}

// TestViewAtWorldEdgesAndCorners pins the hand-picked placements: avatars
// in each corner and mid-edge of a world whose last cells are partial,
// with entities exactly on the viewport's edges and just outside them.
func TestViewAtWorldEdgesAndCorners(t *testing.T) {
	const width, height = 1000.0, 700.0
	centres := [][2]float64{{0, 0}, {width, 0}, {0, height}, {width, height},
		{width / 2, 0}, {width, height / 2}, {500, 350}, {64, 64}, {960, 640}}
	for i, c := range centres {
		rep := vw.NewReplica(width, height)
		var deltas []vw.Delta
		add := func(kind vw.EntityKind, owner int, x, y float64) {
			if x < 0 || x > width || y < 0 || y > height {
				return
			}
			id := vw.EntityID(len(deltas) + 1)
			deltas = append(deltas, vw.Delta{ID: id, Entity: vw.Entity{ID: id, Kind: kind, Owner: owner,
				X: x, Y: y, HP: 50, Version: 1}})
		}
		add(vw.KindAvatar, 1, c[0], c[1])
		for _, dx := range []float64{-render.ViewHalfWidth - 0.5, -render.ViewHalfWidth, 0, render.ViewHalfWidth, render.ViewHalfWidth + 0.5} {
			for _, dy := range []float64{-render.ViewHalfHeight - 0.5, -render.ViewHalfHeight, 0, render.ViewHalfHeight, render.ViewHalfHeight + 0.5} {
				add(vw.KindNPC, -1, c[0]+dx, c[1]+dy)
			}
		}
		// Reverse ID order across cells: the view must still come back sorted.
		slices.Reverse(deltas)
		rep.Apply(uint64(i+1), deltas)
		newViewChecker().check(t, "placed", rep, []int{1, 99})
	}
}
