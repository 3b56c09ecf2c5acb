package virtualworld

import "testing"

func TestViewport(t *testing.T) {
	v := Viewport{CenterX: 100, CenterY: 100, HalfWidth: 50, HalfHeight: 30}
	if !v.Contains(100, 100) || !v.Contains(150, 130) {
		t.Error("viewport excludes interior points")
	}
	if v.Contains(151, 100) || v.Contains(100, 131) {
		t.Error("viewport includes exterior points")
	}
}

func TestVisibleEntities(t *testing.T) {
	w := New(400, 400)
	w.SpawnAvatar(1, 100, 100)
	w.SpawnNPC(120, 110)
	w.SpawnNPC(350, 350)
	v := Viewport{CenterX: 100, CenterY: 100, HalfWidth: 60, HalfHeight: 60}
	vis := AppendVisibleEntities(nil, w.Snapshot(), v)
	if len(vis) != 2 {
		t.Fatalf("visible = %d, want 2", len(vis))
	}
	for i := 1; i < len(vis); i++ {
		if vis[i].ID <= vis[i-1].ID {
			t.Fatal("visible entities not sorted")
		}
	}
}
