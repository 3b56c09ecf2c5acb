package core

import (
	"testing"

	"cloudfog/internal/sim"
	"cloudfog/internal/streaming"
	"cloudfog/internal/workload"
)

func TestDecisionRandStable(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	sysA, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The decision streams must be identical across systems with the same
	// seed — the property that makes cross-system comparisons fair.
	a := sysA.decisionRand("game", 5, 2, 7).Float64()
	b := sysB.decisionRand("game", 5, 2, 7).Float64()
	if a != b {
		t.Errorf("decision streams diverge: %v vs %v", a, b)
	}
	// ... and different across purposes, players, and times.
	if a == sysA.decisionRand("partner", 5, 2, 7).Float64() {
		t.Error("purpose does not separate streams")
	}
	if a == sysA.decisionRand("game", 6, 2, 7).Float64() {
		t.Error("player does not separate streams")
	}
	if a == sysA.decisionRand("game", 5, 3, 7).Float64() {
		t.Error("cycle does not separate streams")
	}
}

func TestDecisionRandStableAcrossModes(t *testing.T) {
	// Core guarantee: Cloud and CloudFog runs of the same seed draw the
	// same game choices per (player, day).
	cfgA := quickConfig(ModeCloud)
	cfgB := quickConfig(ModeCloudFog)
	sysA, _ := NewSystem(cfgA)
	sysB, _ := NewSystem(cfgB)
	for p := 0; p < 20; p++ {
		a := sysA.decisionRand("game", p, 1, 1).Float64()
		b := sysB.decisionRand("game", p, 1, 1).Float64()
		if a != b {
			t.Fatalf("mode changed the decision stream for player %d", p)
		}
	}
}

func TestLinkForSupernodeVsCloud(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.AlwaysOn = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2, 0)
	// After the run everyone left; re-join a player manually through one
	// subcycle to inspect links.
	clock := sim.Clock{Cycle: 2, Subcycle: 1}
	r := sys.rRun.SplitNamed("test")
	var fogP, cloudP *Player
	for _, p := range sys.players {
		sys.ps.session[p.ID] = workload.Session{Start: 1, Duration: 24}
		sys.join(p, clock, false, r)
		if sys.ps.src[p.ID] == srcSupernode && fogP == nil {
			fogP = p
		}
		if sys.ps.src[p.ID] == srcCloud && cloudP == nil {
			cloudP = p
		}
		if fogP != nil && cloudP != nil {
			break
		}
	}
	if fogP == nil {
		t.Fatal("no fog-served player found")
	}
	link, oneway := sys.linkForR(fogP, clock, nil)
	if link.EffectiveKbps <= 0 || link.OneWayMs <= 0 || oneway != link.OneWayMs {
		t.Errorf("fog link malformed: %+v oneway=%v", link, oneway)
	}
	if cloudP != nil {
		cl, _ := sys.linkForR(cloudP, clock, nil)
		if cl.EffectiveKbps <= 0 {
			t.Errorf("cloud link malformed: %+v", cl)
		}
	}
}

func TestInteractionCommBounds(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.AlwaysOn = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(3, 1)
	// Mean server-communication latency sits between the intra- and
	// cross-server costs (plus nothing else in cloud-state modes).
	comm := m.ServerCommMs.Mean()
	if comm < 2 || comm > 30 {
		t.Errorf("mean comm %v outside [intra, cross]", comm)
	}
}

func TestSessionMeterFeedsSatisfaction(t *testing.T) {
	var meter streaming.Meter
	meter.Observe(1, 1)
	if !meter.Satisfied() {
		t.Error("perfect session unsatisfied")
	}
}

func TestChurnPoolConservation(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Arrivals = &workload.ArrivalScript{OffPeakPerMinute: 0.5, PeakPerMinute: 2}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(4, 1)
	// Every player is either online or back in the arrival pool: nobody
	// leaks out of the churn cycle.
	online := 0
	for _, p := range sys.players {
		if sys.ps.online[p.ID] {
			online++
		}
	}
	// finalize() closed all sessions, so everyone must be pooled.
	if online != 0 {
		t.Errorf("%d players online after finalize", online)
	}
	if got := len(sys.arrivalPool); got != cfg.Players {
		t.Errorf("arrival pool holds %d of %d players", got, cfg.Players)
	}
}

func TestFleetUtilizationBounds(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := sys.fleetUtilization()
	if u < 0.2 || u > 1 {
		t.Errorf("bootstrap utilization %v outside [0.2, 1]", u)
	}
}

func TestQualityLevelsWithinGameDefault(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.AlwaysOn = true
	cfg.Strategies = Strategies{Adaptation: true}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(4, 2)
	mean := m.QualityLevel.Mean()
	if mean > 5 || mean < 1 {
		t.Errorf("mean quality level %v out of ladder", mean)
	}
	// Adaptation must sometimes deliver below the maximum rung.
	if mean == 5 {
		t.Error("adaptation never shed quality")
	}
}
