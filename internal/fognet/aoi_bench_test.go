package fognet

import (
	"testing"

	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// newAoIFanoutFixture is the tick fan-out fixture: one tick's delta stream
// over a world×world map, fanoutWidth subscribers each watching a
// viewport-sized footprint around its player. The first `visible` deltas
// land inside those footprints; the rest are spread uniformly over the
// whole world (background activity no subscriber cares about). With aoi
// false the same supernodes have no interest set and get the pre-AoI
// full-world stream instead.
func newAoIFanoutFixture(total, visible int, world float64, aoi bool) *fanoutFixture {
	geo := virtualworld.Geometry(world, world, virtualworld.DefaultCellSize)
	r := rng.New(uint64(total)*31 + uint64(visible)).SplitNamed("aoi-bench")
	type pt struct{ x, y float64 }
	players := make([]pt, fanoutWidth)
	sets := make([]*interestSet, fanoutWidth)
	halfW := render.ViewHalfWidth + aoiMargin
	halfH := render.ViewHalfHeight + aoiMargin
	var cells []uint32
	for i := range players {
		players[i] = pt{
			x: world * float64(i+1) / float64(fanoutWidth+1),
			y: world / 2,
		}
		if !aoi {
			continue
		}
		sets[i] = newInterestSet(geo.NumCells())
		cells = geo.AppendCellsInRect(cells[:0],
			players[i].x-halfW, players[i].y-halfH, players[i].x+halfW, players[i].y+halfH)
		for _, c := range cells {
			sets[i].add(c)
		}
	}
	deltas := make([]virtualworld.Delta, total)
	for i := range deltas {
		var x, y float64
		if i < visible {
			// Inside the cycling player's viewport: guaranteed subscribed.
			p := players[i%len(players)]
			x = p.x + (r.Float64()*2-1)*render.ViewHalfWidth
			y = p.y + (r.Float64()*2-1)*render.ViewHalfHeight
		} else {
			x = r.Float64() * world
			y = r.Float64() * world
		}
		id := virtualworld.EntityID(i + 1)
		deltas[i] = virtualworld.Delta{ID: id, Entity: virtualworld.Entity{
			ID: id, Kind: virtualworld.KindNPC, Owner: -1, X: x, Y: y, HP: 80, Version: 7,
		}}
	}
	return newFanoutFixture(geo, deltas, sets)
}

// aoiBenchCases: the world-scaling rows hold the visible set fixed while
// the world (entities and area, constant density) grows — AoI cost must
// stay flat where the legacy full-world fan-out grows linearly. The
// visible-scaling rows hold the world fixed while the in-footprint share
// grows — AoI cost must grow linearly with it.
var aoiBenchCases = []struct {
	name    string
	total   int
	visible int
	world   float64
}{
	{"world=2k/visible=512", 2_000, 512, 1400},
	{"world=10k/visible=512", 10_000, 512, 3200},
	{"world=40k/visible=512", 40_000, 512, 6400},
	{"world=16k/visible=1k", 16_000, 1_000, 4000},
	{"world=16k/visible=4k", 16_000, 4_000, 4000},
	{"world=16k/visible=16k", 16_000, 16_000, 4000},
}

// benchFanoutCases runs every aoiBenchCases row and reports, alongside
// ns/op, fanoutB/tick — the Λ egress one tick puts on the wire, the number
// the AoI layer exists to bound.
func benchFanoutCases(b *testing.B, aoi bool) {
	for _, tc := range aoiBenchCases {
		b.Run(tc.name, func(b *testing.B) {
			f := newAoIFanoutFixture(tc.total, tc.visible, tc.world, aoi)
			f.tick(b) // warm pools and plan scratch
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				bytes += f.tick(b)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "fanoutB/tick")
		})
	}
}

// BenchmarkAoITickFanout measures the interest-managed tick fan-out.
func BenchmarkAoITickFanout(b *testing.B) { benchFanoutCases(b, true) }

// BenchmarkLegacyTickFanout is the full-world baseline on the identical
// fixture: egress is total-entity- (and supernode-) proportional no matter
// what the players can see.
func BenchmarkLegacyTickFanout(b *testing.B) { benchFanoutCases(b, false) }

// TestAoIFanoutSteadyStateAllocs pins the AoI fan-out's allocation
// discipline as a regression test: after warm-up, bucketing + per-cell
// encode + enqueue + coalesced drain allocate nothing — nor do the two
// batches a plain tick lacks, the CellNone one a removal causes and a
// pending cell keyframe.
func TestAoIFanoutSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under -race; allocation counts only hold without it")
	}
	busy := newAoIFanoutFixture(2048, 512, 1400, true)
	// The removal and the keyframe ride on a tick small enough that no
	// pooled buffer has to grow: on the busy one they would add two more
	// pool members for the warm-up below to bring to the high-water mark.
	quiet := newAoIFanoutFixture(64, 64, 1400, true)
	quiet.deltas = append(quiet.deltas, virtualworld.Delta{ID: 1 << 20, Removed: true})
	first := quiet.deltas[0].Entity
	quiet.s.keyDeltas = quiet.deltas[:1]
	quiet.s.keyPlan = []keyItem{{sn: quiet.s.fanSNs[0], cell: quiet.geo.CellOf(first.X, first.Y), off: 0, n: 1}}
	for _, f := range []*fanoutFixture{busy, quiet} {
		// Convergence needs more warm-up than the single-payload fan-out
		// test: the cycle keeps ~one pooled buffer per dirty cell, and
		// buffers trade roles (cell payload vs coalesced frame) between
		// ticks, so each tick can grow at most one more pool member to the
		// high-water mark.
		for i := 0; i < 512; i++ {
			f.tick(t)
		}
		if n := testing.AllocsPerRun(64, func() { f.tick(t) }); n != 0 {
			t.Fatalf("AoI fan-out of %d deltas allocates %.1f/op in steady state, want 0", len(f.deltas), n)
		}
	}
}

// TestAoIFanoutEgressFollowsVisible pins what the AoI layer is for, on
// the benchmark's own rows (the fixture is seeded, so the byte counts are
// exact): a tick's egress follows what the subscribers can see, not the
// size of the world, and is below the full-world stream on every row.
func TestAoIFanoutEgressFollowsVisible(t *testing.T) {
	aoi := make([]int64, len(aoiBenchCases))
	legacy := make([]int64, len(aoiBenchCases))
	for i, tc := range aoiBenchCases {
		aoi[i] = newAoIFanoutFixture(tc.total, tc.visible, tc.world, true).tick(t)
		legacy[i] = newAoIFanoutFixture(tc.total, tc.visible, tc.world, false).tick(t)
		if aoi[i] <= 0 || aoi[i] >= legacy[i] {
			t.Errorf("%s: AoI egress %d B/tick, full-world %d: want 0 < AoI < full-world", tc.name, aoi[i], legacy[i])
		}
	}
	// Rows 0–2: visible=512 while the world grows 2k → 10k → 40k.
	lo, hi := aoi[0], aoi[0]
	for _, b := range aoi[1:3] {
		lo, hi = min(lo, b), max(hi, b)
	}
	if 2*hi > 3*lo {
		t.Errorf("AoI egress at visible=512 spreads %d–%d B/tick over a 20x world, want within 1.5x", lo, hi)
	}
	if legacy[2] < 15*legacy[0] {
		t.Errorf("full-world egress %d → %d B/tick over a 20x world, want ≥ 15x growth", legacy[0], legacy[2])
	}
	// Rows 3–5: world=16k while visible grows 1k → 4k → 16k.
	if g := float64(aoi[5]) / float64(aoi[3]); aoi[3] >= aoi[4] || aoi[4] >= aoi[5] || g < 4 || g > 16 {
		t.Errorf("AoI egress %d → %d → %d B/tick over 16x visible, want monotone growth of 4–16x", aoi[3], aoi[4], aoi[5])
	}
}
