package cloudinfra

import (
	"testing"

	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// TestUpdateStreamMatchesLambda cross-validates the simulator's Λ constant
// (DefaultUpdateKbps, the cloud->supernode update bandwidth) against the
// actual wire-encoded update stream of the virtual-world substrate under a
// busy neighborhood: ~100 concurrently-acting avatars at 20 ticks/second.
// The simulator's Λ must be the right order of magnitude — neither a
// hand-wave nor video-sized.
func TestUpdateStreamMatchesLambda(t *testing.T) {
	const (
		players        = 100
		ticksPerSecond = 20
		seconds        = 5
	)
	r := rng.New(1)
	w := virtualworld.New(1024, 1024)
	for p := 1; p <= players; p++ {
		w.SpawnAvatar(p, r.Uniform(0, 1024), r.Uniform(0, 1024))
	}
	var bits int
	for tick := 0; tick < ticksPerSecond*seconds; tick++ {
		var actions []virtualworld.Action
		for p := 1; p <= players; p++ {
			// A typical input mix: mostly movement, some combat.
			if r.Bool(0.8) {
				actions = append(actions, virtualworld.Action{
					Player: p, Kind: virtualworld.ActMove,
					TargetX: r.Uniform(0, 1024), TargetY: r.Uniform(0, 1024),
				})
			}
		}
		deltas := w.Step(actions)
		batch := protocol.UpdateBatch{Tick: w.Tick(), Deltas: deltas}
		bits += len(batch.AppendTo(nil)) * 8
	}
	kbps := float64(bits) / seconds / 1000
	t.Logf("measured update stream: %.1f kbps for %d active avatars", kbps, players)
	// Λ in the simulator is 150 kbps per supernode. The measured stream
	// for a full busy neighborhood must be within an order of magnitude
	// (interest management trims it further in practice).
	if kbps < DefaultUpdateKbps/3 || kbps > DefaultUpdateKbps*10 {
		t.Errorf("measured Λ %.1f kbps is not commensurate with the simulator's %v kbps",
			kbps, float64(DefaultUpdateKbps))
	}
	// And it must be far below a single game-video stream (~1200 kbps x
	// the supernode's players): the premise of the whole system.
	if kbps > 1200*players/10 {
		t.Errorf("update stream %.1f kbps not meaningfully below video scale", kbps)
	}
}
