package core

import (
	"testing"

	"cloudfog/internal/sim"
	"cloudfog/internal/workload"
)

// Steady-state allocation regression tests for the per-tick hot paths. The
// scratch buffers (evalScratch, srvCount/srvTouched, friendGameScratch, the
// reseedable keyed Rand) exist so that once warm, a subcycle allocates
// nothing per player; these tests are the gate that keeps it that way.

// TestEvalPhaseSteadyStateAllocs pins the streaming-evaluation loop — the
// code every player pays every subcycle — at zero allocations per phase
// once scratch buffers are warm (one worker runs on the caller; more spawn
// their goroutines per phase by design).
func TestEvalPhaseSteadyStateAllocs(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Strategies = AllStrategies()
	cfg.AlwaysOn = true
	cfg.Workers = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := sys.rRun.SplitNamed("alloc-test")
	join := sim.Clock{Cycle: 0, Subcycle: 1}
	for i, p := range sys.players {
		sys.ps.session[i] = workload.Session{Start: 1, Duration: 24}
		sys.join(p, join, false, r)
	}
	// Subcycle 3 != any session start, so no co-play records are due and
	// the phase's shared-state writes are pure accumulator arithmetic.
	clock := sim.Clock{Cycle: 0, Subcycle: 3}
	allocs := testing.AllocsPerRun(10, func() {
		sys.evalPhase(clock, true)
	})
	if allocs != 0 {
		t.Errorf("evalPhase allocates %v times per phase in steady state, want 0", allocs)
	}
}

// TestAssignStateServerAllocs pins the social server-assignment scan (dense
// per-server counts + touched list) at zero allocations per join.
func TestAssignStateServerAllocs(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Strategies = AllStrategies()
	cfg.AlwaysOn = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2, 0) // every player ends up with a sticky server assignment
	p := sys.players[len(sys.players)/2]
	r := sys.rRun.SplitNamed("alloc-test")
	allocs := testing.AllocsPerRun(100, func() {
		sys.cloud.RemovePlayer(p.ID)
		sys.assignStateServer(p, r)
	})
	if allocs != 0 {
		t.Errorf("assignStateServer allocates %v times per join in steady state, want 0", allocs)
	}
}

// TestSpawnArrivalsAllocs pins churn-mode arrival processing at zero
// allocations per subcycle: pool draws swap-remove in place and session
// writes land in the SoA store.
func TestSpawnArrivalsAllocs(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Arrivals = &workload.ArrivalScript{OffPeakPerMinute: 0.5, PeakPerMinute: 2}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.initArrivalPool()
	r := sys.rRun.SplitNamed("alloc-test")
	clock := sim.Clock{Cycle: 0, Subcycle: 12}
	allocs := testing.AllocsPerRun(50, func() {
		sys.spawnArrivals(clock, r)
	})
	if allocs != 0 {
		t.Errorf("spawnArrivals allocates %v times per subcycle, want 0", allocs)
	}
}

// TestJoinSteadyStateAllocs pins a warm CloudFog join — game choice,
// sticky server assignment, supernode selection, route memo, controller
// reset — and the leave that undoes it at zero allocations.
func TestJoinSteadyStateAllocs(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Strategies = AllStrategies()
	cfg.AlwaysOn = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2, 0) // sticky server assignments, rated supernodes, warm scratch
	r := sys.rRun.SplitNamed("alloc-test")
	clock := sim.Clock{Cycle: 2, Subcycle: 1}
	// Half the population online gives the game choice friends to follow.
	for i := 0; i < len(sys.players); i += 2 {
		sys.join(sys.players[i], clock, true, r)
	}
	fogServed := 0
	for _, id := range []int{1, 51, 101, 151, 201, 251} {
		p := sys.players[id]
		allocs := testing.AllocsPerRun(50, func() {
			sys.join(p, clock, true, r)
			if sys.ps.src[p.ID] == srcSupernode {
				fogServed++
			}
			sys.leave(p, clock, true)
		})
		if allocs != 0 {
			t.Errorf("join+leave of player %d allocates %v times, want 0", id, allocs)
		}
	}
	if fogServed == 0 {
		t.Error("no join was served by a supernode")
	}
}
