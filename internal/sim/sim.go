// Package sim provides the cycle-driven simulation engine of the CloudFog
// reproduction — the PeerSim substitute (see DESIGN.md §5).
//
// PeerSim's cycle-based mode advances all nodes in synchronous rounds; the
// paper runs 28 cycles (days) of 24 hourly subcycles each, uses the first
// 21 cycles (3 weeks) as warm-up to accumulate reputation scores, and
// reports averages over the last 7 cycles. Engine reproduces exactly that
// protocol and tells the callback whether the current subcycle is within
// the measured window.
package sim

import (
	"fmt"

	"cloudfog/internal/workload"
)

// Defaults matching the paper's experimental protocol.
const (
	// DefaultCycles is the experiment length in daily cycles.
	DefaultCycles = 28
	// DefaultWarmupCycles is the reputation warm-up (3 weeks).
	DefaultWarmupCycles = 21
)

// Clock is the current simulation time: a 0-based cycle (day) and a 1-based
// subcycle (hour).
type Clock struct {
	// Cycle is the 0-based day index.
	Cycle int
	// Subcycle is the 1-based hour index in [1, 24].
	Subcycle int
}

// Day returns the 0-based day number (an alias of Cycle, named for the
// reputation aging API which counts ages in days).
func (c Clock) Day() int { return c.Cycle }

// AbsoluteSubcycle returns the number of subcycles elapsed since the start
// of the simulation, 0-based.
func (c Clock) AbsoluteSubcycle() int {
	return c.Cycle*workload.SubcyclesPerCycle + c.Subcycle - 1
}

// String renders the clock.
func (c Clock) String() string {
	return fmt.Sprintf("c%02d/h%02d", c.Cycle, c.Subcycle)
}

// Engine drives a cycle-based simulation.
type Engine struct {
	// Cycles is the total number of daily cycles to run. Defaults to
	// DefaultCycles when zero.
	Cycles int
	// WarmupCycles is the number of initial cycles excluded from
	// measurement. Defaults to DefaultWarmupCycles when zero (pass a
	// negative value for no warm-up).
	WarmupCycles int
}

// Hooks are the callbacks the engine invokes. Any nil hook is skipped.
type Hooks struct {
	// BeginCycle runs before the first subcycle of each cycle.
	BeginCycle func(cycle int, measured bool)
	// Subcycle runs for each hourly subcycle.
	Subcycle func(clock Clock, measured bool)
	// EndCycle runs after the last subcycle of each cycle.
	EndCycle func(cycle int, measured bool)
}

// Run executes the configured number of cycles. The measured flag is true
// for cycles past the warm-up window.
func (e Engine) Run(h Hooks) {
	cycles := e.Cycles
	if cycles == 0 {
		cycles = DefaultCycles
	}
	warmup := e.WarmupCycles
	if warmup == 0 {
		warmup = DefaultWarmupCycles
	}
	if warmup < 0 {
		warmup = 0
	}
	if warmup > cycles {
		warmup = cycles
	}
	for cycle := 0; cycle < cycles; cycle++ {
		measured := cycle >= warmup
		if h.BeginCycle != nil {
			h.BeginCycle(cycle, measured)
		}
		if h.Subcycle != nil {
			for sub := 1; sub <= workload.SubcyclesPerCycle; sub++ {
				h.Subcycle(Clock{Cycle: cycle, Subcycle: sub}, measured)
			}
		}
		if h.EndCycle != nil {
			h.EndCycle(cycle, measured)
		}
	}
}
