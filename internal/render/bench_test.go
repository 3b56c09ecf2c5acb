package render

import (
	"testing"

	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// BenchmarkRenderInto measures rasterizing one 512x384 frame of a
// 50-entity neighborhood into a reused frame — the supernode's per-player
// per-frame render cost.
func BenchmarkRenderInto(b *testing.B) {
	r := rng.New(1)
	w := virtualworld.New(400, 400)
	for p := 1; p <= 50; p++ {
		w.SpawnAvatar(p, r.Uniform(0, 400), r.Uniform(0, 400))
	}
	s := w.Snapshot()
	renderer := NewRenderer(ResolutionForLevel(3))
	v := ViewportFor(s, 1)
	f := NewFrame(renderer.Resolution())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderer.RenderInto(s, v, f)
	}
}
