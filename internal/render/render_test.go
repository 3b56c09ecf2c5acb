package render

import (
	"testing"

	"cloudfog/internal/virtualworld"
)

// render is the tests' owning form of RenderInto: a fresh frame per call.
func render(r *Renderer, s virtualworld.Snapshot, v virtualworld.Viewport) *Frame {
	f := NewFrame(r.Resolution())
	r.RenderInto(s, v, f)
	return f
}

func demoWorld() *virtualworld.World {
	w := virtualworld.New(400, 400)
	w.SpawnAvatar(1, 200, 200)
	w.SpawnAvatar(2, 220, 210)
	w.SpawnNPC(180, 190)
	w.SpawnItem(205, 195)
	return w
}

func TestResolutionForLevel(t *testing.T) {
	tests := []struct {
		level int
		want  Resolution
	}{
		{1, Resolution{288, 216}},
		{2, Resolution{384, 216}},
		{3, Resolution{512, 384}},
		{4, Resolution{720, 486}},
		{5, Resolution{1280, 720}},
		{0, Resolution{288, 216}},
		{9, Resolution{1280, 720}},
	}
	for _, tt := range tests {
		if got := ResolutionForLevel(tt.level); got != tt.want {
			t.Errorf("ResolutionForLevel(%d) = %+v", tt.level, got)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	w := demoWorld()
	s := w.Snapshot()
	r := NewRenderer(ResolutionForLevel(2))
	v := ViewportFor(s, 1)
	f1 := render(r, s, v)
	f2 := render(r, s, v)
	if !f1.Equal(f2) {
		t.Fatal("same snapshot rendered differently")
	}
	if f1.Width != 384 || f1.Height != 216 || len(f1.Pix) != 384*216 {
		t.Fatalf("frame geometry: %+v", f1)
	}
}

func TestRenderShowsEntities(t *testing.T) {
	w := demoWorld()
	s := w.Snapshot()
	r := NewRenderer(ResolutionForLevel(2))
	v := ViewportFor(s, 1)
	withEntities := render(r, s, v)
	empty := render(r, virtualworld.Snapshot{Tick: s.Tick, Width: 400, Height: 400}, v)
	if withEntities.Equal(empty) {
		t.Fatal("entities invisible in the frame")
	}
	// The avatar disc must be bright at the frame center.
	c := withEntities.At(withEntities.Width/2, withEntities.Height/2)
	if c < 100 {
		t.Errorf("center luminance %d too dark for an avatar", c)
	}
}

func TestRenderChangesWhenWorldChanges(t *testing.T) {
	w := demoWorld()
	r := NewRenderer(ResolutionForLevel(2))
	s1 := w.Snapshot()
	f1 := render(r, s1, ViewportFor(s1, 1))
	w.Step([]virtualworld.Action{{Player: 2, Kind: virtualworld.ActMove, TargetX: 300, TargetY: 300}})
	s2 := w.Snapshot()
	f2 := render(r, s2, ViewportFor(s2, 1))
	if f1.Equal(f2) {
		t.Fatal("world change invisible")
	}
	// The change is local: most pixels should be identical (the premise
	// of inter-frame compression).
	if frac := f1.DiffFraction(f2); frac > 0.2 {
		t.Errorf("diff fraction %v too large for a small move", frac)
	}
}

func TestRenderViewDependent(t *testing.T) {
	w := demoWorld()
	s := w.Snapshot()
	r := NewRenderer(ResolutionForLevel(1))
	f1 := render(r, s, ViewportFor(s, 1))
	f2 := render(r, s, ViewportFor(s, 2))
	if f1.Equal(f2) {
		t.Fatal("different viewpoints produced identical frames")
	}
}

func TestViewportForMissingPlayerCentersWorld(t *testing.T) {
	s := virtualworld.Snapshot{Width: 400, Height: 400}
	v := ViewportFor(s, 99)
	if v.CenterX != 200 || v.CenterY != 200 {
		t.Errorf("fallback viewport %+v", v)
	}
}

func TestFrameAtBounds(t *testing.T) {
	f := NewFrame(Resolution{4, 4})
	f.Pix[0] = 9
	if f.At(0, 0) != 9 {
		t.Error("At broken")
	}
	if f.At(-1, 0) != 0 || f.At(0, -1) != 0 || f.At(4, 0) != 0 || f.At(0, 4) != 0 {
		t.Error("out-of-bounds At not zero")
	}
}

func TestDiffFraction(t *testing.T) {
	a := NewFrame(Resolution{2, 2})
	b := NewFrame(Resolution{2, 2})
	if a.DiffFraction(b) != 0 {
		t.Error("identical frames differ")
	}
	b.Pix[0] = 1
	if got := a.DiffFraction(b); got != 0.25 {
		t.Errorf("diff = %v, want 0.25", got)
	}
	c := NewFrame(Resolution{3, 3})
	if a.DiffFraction(c) != 1 {
		t.Error("size mismatch diff != 1")
	}
}

func TestNewRendererDefaults(t *testing.T) {
	r := NewRenderer(Resolution{})
	if r.Resolution() != ResolutionForLevel(3) {
		t.Errorf("default resolution %+v", r.Resolution())
	}
}
