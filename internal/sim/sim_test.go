package sim

import (
	"testing"

	"cloudfog/internal/workload"
)

func TestClock(t *testing.T) {
	c := Clock{Cycle: 2, Subcycle: 5}
	if c.Day() != 2 {
		t.Errorf("Day = %d", c.Day())
	}
	if got := c.AbsoluteSubcycle(); got != 2*24+4 {
		t.Errorf("AbsoluteSubcycle = %d", got)
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestEngineRunsFullProtocol(t *testing.T) {
	e := Engine{} // defaults: 28 cycles, 21 warm-up
	var begin, sub, end int
	var measuredSubs int
	var lastClock Clock
	e.Run(Hooks{
		BeginCycle: func(cycle int, measured bool) { begin++ },
		Subcycle: func(clock Clock, measured bool) {
			sub++
			lastClock = clock
			if measured {
				measuredSubs++
			}
		},
		EndCycle: func(cycle int, measured bool) { end++ },
	})
	if begin != 28 || end != 28 {
		t.Errorf("cycles: begin=%d end=%d", begin, end)
	}
	if sub != 28*workload.SubcyclesPerCycle {
		t.Errorf("subcycles = %d", sub)
	}
	if measuredSubs != 7*workload.SubcyclesPerCycle {
		t.Errorf("measured subcycles = %d, want last 7 cycles", measuredSubs)
	}
	if lastClock.Cycle != 27 || lastClock.Subcycle != 24 {
		t.Errorf("last clock = %v", lastClock)
	}
}

func TestEngineCustomProtocol(t *testing.T) {
	e := Engine{Cycles: 5, WarmupCycles: 2}
	var measured, unmeasured int
	e.Run(Hooks{
		BeginCycle: func(cycle int, m bool) {
			if m {
				measured++
			} else {
				unmeasured++
			}
		},
	})
	if measured != 3 || unmeasured != 2 {
		t.Errorf("measured=%d unmeasured=%d", measured, unmeasured)
	}
}

func TestEngineNoWarmup(t *testing.T) {
	e := Engine{Cycles: 3, WarmupCycles: -1}
	measured := 0
	e.Run(Hooks{BeginCycle: func(cycle int, m bool) {
		if m {
			measured++
		}
	}})
	if measured != 3 {
		t.Errorf("negative warm-up should mean none; measured=%d", measured)
	}
}

func TestEngineWarmupExceedsCycles(t *testing.T) {
	e := Engine{Cycles: 2, WarmupCycles: 10}
	measured := 0
	e.Run(Hooks{BeginCycle: func(cycle int, m bool) {
		if m {
			measured++
		}
	}})
	if measured != 0 {
		t.Errorf("warm-up > cycles should measure nothing; measured=%d", measured)
	}
}

func TestEngineNilHooks(t *testing.T) {
	// Must not panic with any hook missing.
	Engine{Cycles: 1, WarmupCycles: -1}.Run(Hooks{})
}

func TestSubcycleOrder(t *testing.T) {
	e := Engine{Cycles: 2, WarmupCycles: -1}
	prev := -1
	e.Run(Hooks{Subcycle: func(clock Clock, m bool) {
		abs := clock.AbsoluteSubcycle()
		if abs != prev+1 {
			t.Fatalf("subcycle order broken: %d after %d", abs, prev)
		}
		if clock.Subcycle < 1 || clock.Subcycle > workload.SubcyclesPerCycle {
			t.Fatalf("subcycle out of range: %d", clock.Subcycle)
		}
		prev = abs
	}})
}
