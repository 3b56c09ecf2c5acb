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

// TestRenderIntoSteadyStateAllocs locks in the zero-allocation property of
// the 30 fps fog render loop.
func TestRenderIntoSteadyStateAllocs(t *testing.T) {
	s := testSnapshot(t)
	v := ViewportFor(s, 1)
	r := NewRenderer(ResolutionForLevel(3))
	f := NewFrame(r.Resolution())
	r.RenderInto(s, v, f) // warm-up: grow the culling scratch
	if n := testing.AllocsPerRun(32, func() {
		r.RenderInto(s, v, f)
	}); n != 0 {
		t.Fatalf("RenderInto allocates %.1f/op in steady state, want 0", n)
	}
}
