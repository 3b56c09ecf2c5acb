package render

import (
	"testing"

	"cloudfog/internal/virtualworld"
)

// testSnapshot builds a small deterministic world with entities inside the
// player-1 viewport.
func testSnapshot(t testing.TB) virtualworld.Snapshot {
	t.Helper()
	w := virtualworld.New(400, 400)
	w.SpawnAvatar(1, 200, 150)
	w.SpawnAvatar(2, 210, 160)
	for i := 0; i < 10; i++ {
		w.Step([]virtualworld.Action{{Player: 1, Kind: virtualworld.ActMove, TargetX: 250, TargetY: 200}})
	}
	return w.Snapshot()
}

// TestRenderIntoResizesFrame pins the reuse path's one reallocation: a
// frame left over from another resolution is resized, and renders exactly
// what a right-sized frame does.
func TestRenderIntoResizesFrame(t *testing.T) {
	s := testSnapshot(t)
	v := ViewportFor(s, 1)
	r := NewRenderer(ResolutionForLevel(3))
	want := render(r, s, v)
	f := NewFrame(ResolutionForLevel(1)) // wrong size: RenderInto must resize
	r.RenderInto(s, v, f)
	if !want.Equal(f) || want.Tick != f.Tick {
		t.Fatal("resized frame renders differently")
	}
}

// movingViews is the product's input shape: successive views of a scene in
// which an avatar walks, so every frame moves the camera and every sprite
// on screen.
func movingViews(t testing.TB, n int) []virtualworld.Snapshot {
	t.Helper()
	w := virtualworld.New(400, 400)
	w.SpawnAvatar(1, 120, 110)
	w.SpawnAvatar(2, 210, 160)
	w.SpawnNPC(150, 130)
	w.SpawnItem(170, 150)
	views := make([]virtualworld.Snapshot, n)
	for i := range views {
		w.Step([]virtualworld.Action{
			{Player: 1, Kind: virtualworld.ActMove, TargetX: 300, TargetY: 280},
			{Player: 2, Kind: virtualworld.ActEmote, StateTag: uint8(i % 4)},
		})
		views[i] = w.Snapshot()
	}
	return views
}

// TestRenderIntoSteadyStateAllocs locks in the zero-allocation property of
// the 30 fps fog render loop, in the loop's shape: one frame drawn over and
// over, its damage consumed (there by the session's encoder) after each
// render.
func TestRenderIntoSteadyStateAllocs(t *testing.T) {
	views := movingViews(t, 16)
	r := NewRenderer(ResolutionForLevel(3))
	f := NewFrame(r.Resolution())
	i := 0
	frame := func() {
		s := views[i%len(views)]
		i++
		r.RenderInto(s, ViewportFor(s, 1), f)
		f.ClearDamage()
	}
	frame() // warm-up: grow the culling scratch and the tile sets
	if n := testing.AllocsPerRun(32, frame); n != 0 {
		t.Fatalf("RenderInto allocates %.1f/op in steady state, want 0", n)
	}
}

// damaged reports whether pixel (x, y) of a frame w wide lies in a set
// tile.
func damaged(tiles []uint64, w, x, y int) bool {
	t := y/TileSize*((w+TileSize-1)/TileSize) + x/TileSize
	return tiles[t/64]&(1<<(t%64)) != 0
}

// TestRenderDamageCoversChanges pins the contract the encoder relies on:
// a reused frame always equals a frame painted from nothing, and every
// pixel that differs from what the consumer last saw lies inside the
// damage reported to it — across several renders when none was consumed
// in between — while the damage stays a small part of the picture.
func TestRenderDamageCoversChanges(t *testing.T) {
	views := movingViews(t, 24)
	// Table 2's widths are all whole tiles, 216 and 486 rows are not; 250
	// columns leave a last tile 10 pixels wide.
	for level, res := range map[int]Resolution{1: ResolutionForLevel(1), 4: ResolutionForLevel(4),
		5: ResolutionForLevel(5), 0: {Width: 250, Height: 100}} {
		r := NewRenderer(res)
		f := &Frame{}
		r.RenderInto(views[0], ViewportFor(views[0], 1), f)
		if f.Damage(0) != nil || f.Damage(1) != nil {
			t.Fatal("a frame nobody has consumed reports less than everything")
		}
		gen := f.ClearDamage()
		seen := append([]byte(nil), f.Pix...)
		for i, s := range views[1:] {
			r.RenderInto(s, ViewportFor(s, 1), f)
			if !f.Equal(render(r, s, ViewportFor(s, 1))) {
				t.Fatalf("level %d view %d: the reused frame differs from a fresh render", level, i+1)
			}
			if i%3 == 1 {
				continue // not consumed: the next report must cover this render too
			}
			tiles := f.Damage(gen)
			if tiles == nil {
				t.Fatalf("level %d view %d: damage unknown on a reused, consumed frame", level, i+1)
			}
			if f.Damage(gen-1) != nil || f.Damage(gen+1) != nil {
				t.Fatal("damage reported against a generation that is not the latest")
			}
			set := 0
			for y := 0; y < f.Height; y++ {
				for x := 0; x < f.Width; x++ {
					if f.Pix[y*f.Width+x] != seen[y*f.Width+x] && !damaged(tiles, f.Width, x, y) {
						t.Fatalf("level %d view %d: pixel (%d,%d) changed outside the damage", level, i+1, x, y)
					}
				}
			}
			for _, word := range tiles {
				for ; word != 0; word &= word - 1 {
					set++
				}
			}
			// Four sprites on at most four tiles each, where they were at
			// the last report and in at most two renders since.
			if set == 0 || set > 4*4*3 {
				t.Fatalf("level %d view %d: %d tiles damaged by four moving sprites", level, i+1, set)
			}
			gen = f.ClearDamage()
			copy(seen, f.Pix)
		}
	}
}

// TestDamageUnknownFrames: a frame RenderInto did not draw — built by
// literal, by NewFrame, or one whose pixels were swapped for another
// buffer, as DecodeInto does — reports everything, before and after a
// consumer clears it; RenderInto then repaints it whole.
func TestDamageUnknownFrames(t *testing.T) {
	views := movingViews(t, 2)
	res := ResolutionForLevel(1)
	for name, f := range map[string]*Frame{
		"zero":     {},
		"literal":  {Width: res.Width, Height: res.Height, Pix: make([]byte, res.Width*res.Height)},
		"NewFrame": NewFrame(res),
	} {
		if f.Damage(0) != nil || f.Damage(f.ClearDamage()) != nil {
			t.Errorf("%s frame: damage known without a render", name)
		}
	}
	r := NewRenderer(res)
	f := NewFrame(res)
	r.RenderInto(views[0], ViewportFor(views[0], 1), f)
	gen := f.ClearDamage()
	if f.Damage(gen) == nil {
		t.Fatal("a rendered, consumed frame reports everything")
	}
	f.Pix = make([]byte, len(f.Pix)) // somebody else's pixels now
	if f.Damage(gen) != nil {
		t.Error("a frame whose pixels were replaced still reports tile damage")
	}
	r.RenderInto(views[1], ViewportFor(views[1], 1), f)
	if f.Damage(gen) != nil {
		t.Error("the render after a pixel swap reports less than everything")
	}
	if !f.Equal(render(r, views[1], ViewportFor(views[1], 1))) {
		t.Error("the render after a pixel swap is not a whole repaint")
	}
}
