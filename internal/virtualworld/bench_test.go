package virtualworld

import (
	"testing"

	"cloudfog/internal/rng"
)

// BenchmarkStep measures one authoritative world tick with 200 acting
// avatars — the cloud's per-tick computation cost.
func BenchmarkStep(b *testing.B) {
	r := rng.New(1)
	w := New(1024, 1024)
	for p := 1; p <= 200; p++ {
		w.SpawnAvatar(p, r.Uniform(0, 1024), r.Uniform(0, 1024))
	}
	actions := make([]Action, 0, 200)
	for p := 1; p <= 200; p++ {
		actions = append(actions, Action{
			Player: p, Kind: ActMove,
			TargetX: r.Uniform(0, 1024), TargetY: r.Uniform(0, 1024),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(actions)
	}
}

// BenchmarkReplicaApply measures the supernode-side cost of folding one
// tick's deltas into a replica.
func BenchmarkReplicaApply(b *testing.B) {
	r := rng.New(2)
	w := New(1024, 1024)
	for p := 1; p <= 200; p++ {
		w.SpawnAvatar(p, r.Uniform(0, 1024), r.Uniform(0, 1024))
	}
	var actions []Action
	for p := 1; p <= 200; p++ {
		actions = append(actions, Action{Player: p, Kind: ActMove, TargetX: 500, TargetY: 500})
	}
	deltas := w.Step(actions)
	rep := NewReplica(1024, 1024)
	rep.Seed(w.Snapshot())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Apply(w.Tick(), deltas)
	}
}

// The 20k benchmarks measure the live tiers' per-tick and per-frame world
// costs at the size of the end-to-end benchmark's big_world workload:
// 20 000 entities spread over 4096², five of them avatars. Each cost is
// meant to follow what changed or what is visible, so none of them should
// move when the entity count does.
const (
	benchEntities = 20000
	benchSize     = 4096.0
	benchPlayers  = 5
	// The renderer's viewport half-extents (render.ViewHalfWidth/Height;
	// render imports this package, so they are repeated here).
	benchHalfW, benchHalfH = 120.0, 90.0
)

// world20k builds the benchmark world and a replica seeded from it.
func world20k() (*World, *Replica) {
	r := rng.New(20000)
	w := New(benchSize, benchSize)
	for p := 1; p <= benchPlayers; p++ {
		w.SpawnAvatar(p, benchSize*float64(p)/(benchPlayers+1), benchSize*float64(benchPlayers+1-p)/(benchPlayers+1))
	}
	for i := benchPlayers; i < benchEntities; i++ {
		if i%4 == 0 {
			w.SpawnItem(r.Uniform(0, benchSize), r.Uniform(0, benchSize))
		} else {
			w.SpawnNPC(r.Uniform(0, benchSize), r.Uniform(0, benchSize))
		}
	}
	rep := NewReplica(benchSize, benchSize)
	rep.Seed(w.Snapshot())
	return w, rep
}

// BenchmarkStep20k measures one cloud tick in which every avatar moves:
// five changed entities out of 20 000.
func BenchmarkStep20k(b *testing.B) {
	w, _ := world20k()
	r := rng.New(1)
	actions := make([]Action, benchPlayers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := range actions {
			actions[p] = Action{Player: p + 1, Kind: ActMove,
				TargetX: r.Uniform(0, benchSize), TargetY: r.Uniform(0, benchSize)}
		}
		w.Step(actions)
	}
}

// BenchmarkReplicaView20k measures what a video session does under the
// fog's lock once per frame: fill its reused snapshot with one player's
// view of the replica.
func BenchmarkReplicaView20k(b *testing.B) {
	_, rep := world20k()
	var view Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.ViewInto(&view, 1+i%benchPlayers, benchHalfW, benchHalfH)
	}
}

// BenchmarkCellKeyframe20k measures folding one cell-enter keyframe into
// the replica. Keyframes alternate between the cell's population without
// its first entity (one prune) and the whole population (one insert), so
// every iteration does the merge walk and changes the replica.
func BenchmarkCellKeyframe20k(b *testing.B) {
	w, rep := world20k()
	a, _ := w.Avatar(1)
	c := w.Grid().Geom().CellOf(a.X, a.Y)
	var full []Delta
	for _, id := range w.Grid().AppendCell(nil, c) {
		e, _ := w.Entity(id)
		full = append(full, Delta{ID: id, Entity: e})
	}
	if len(full) < 2 {
		b.Fatalf("cell %d holds %d entities", c, len(full))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.ApplyCellKeyframe(uint64(i), c, full[i&1:])
	}
}
