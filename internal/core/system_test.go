package core

import (
	"math"
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/rng"
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
	a := rng.New(sysA.decisionKey("game", 5, 2, 7)).Float64()
	b := rng.New(sysB.decisionKey("game", 5, 2, 7)).Float64()
	if a != b {
		t.Errorf("decision streams diverge: %v vs %v", a, b)
	}
	// ... and different across purposes, players, and times.
	if a == rng.New(sysA.decisionKey("partner", 5, 2, 7)).Float64() {
		t.Error("purpose does not separate streams")
	}
	if a == rng.New(sysA.decisionKey("game", 6, 2, 7)).Float64() {
		t.Error("player does not separate streams")
	}
	if a == rng.New(sysA.decisionKey("game", 5, 3, 7)).Float64() {
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
		a := rng.New(sysA.decisionKey("game", p, 1, 1)).Float64()
		b := rng.New(sysB.decisionKey("game", p, 1, 1)).Float64()
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
	link := sys.linkForR(fogP, clock, rng.New(0))
	if link.EffectiveKbps <= 0 || link.OneWayMs <= 0 {
		t.Errorf("fog link malformed: %+v", link)
	}
	if cloudP != nil {
		cl := sys.linkForR(cloudP, clock, rng.New(0))
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

// freshLink is linkForR without the route memo: it draws the path from the
// current source's endpoint again on every call, through the allocating
// netmodel calls. It is the oracle TestRouteMatchesFreshLink holds the memo
// to.
func freshLink(s *System, p *Player, clock sim.Clock) streaming.Link {
	ps := s.ps
	var srcEp = s.cloud.Datacenters()[ps.dc[p.ID]].Endpoint
	perStream := s.cfg.ServerStreamKbps
	switch ps.src[p.ID] {
	case srcSupernode:
		sn := s.fogMgr.Get(int(ps.supernode[p.ID]))
		srcEp = sn.Endpoint
		perStream = sn.PerStreamKbps()
	case srcCDN:
		srv := s.cdn[ps.cdnServer[p.ID]]
		srcEp = srv.Endpoint
		perStream = srv.Endpoint.UploadKbps / float64(max(1, srv.load))
		if perStream > s.cfg.ServerStreamKbps {
			perStream = s.cfg.ServerStreamKbps
		}
	}
	oneway := s.model.OneWayMs(rng.New(0), srcEp, p.Endpoint)
	cong := s.model.CongestionFactor(rng.New(0), p.ID, clock.Cycle, clock.Subcycle)
	dist := geo.Distance(srcEp.Loc, p.Endpoint.Loc)
	pathCap := p.Endpoint.DownloadKbps *
		(1 - s.cfg.WideAreaBWPenalty*math.Min(1, dist/wideAreaFullPenaltyKm))
	eff := math.Min(perStream, pathCap) * cong
	return streaming.Link{
		OneWayMs:      oneway,
		EffectiveKbps: eff,
		BaseJitterMs:  streaming.DefaultBaseJitterMs + s.cfg.JitterPerOnewayMs*oneway,
	}
}

// TestRouteMatchesFreshLink runs whole simulations and, after every
// subcycle, requires each online player's memoised link to equal
// freshLink's to the bit — across joins, leaves, migrations after injected
// failures and provisioning withdrawals, fixed-pool trims, CDN and cloud
// serving, and churn arrivals.
func TestRouteMatchesFreshLink(t *testing.T) {
	fail := quickConfig(ModeCloudFog)
	fail.AlwaysOn = true
	fail.Strategies = AllStrategies()
	fail.FailSupernodesPerCycle = 3
	churn := quickConfig(ModeCloudFog)
	churn.Arrivals = &workload.ArrivalScript{OffPeakPerMinute: 0.5, PeakPerMinute: 3}
	churn.FixedSupernodePool = 10
	for _, tc := range []struct {
		name        string
		cfg         Config
		migrations  bool
		wantSources []sourceKind
	}{
		{"cloudfog failures and provisioning", fail, true, []sourceKind{srcSupernode, srcCloud}},
		{"cdn", quickConfig(ModeCDN), false, []sourceKind{srcCDN, srcCloud}},
		{"cloud", quickConfig(ModeCloud), false, []sourceKind{srcCloud}},
		{"churn arrivals", churn, false, []sourceKind{srcSupernode, srcCloud}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			kr := rng.New(0)
			seen := map[sourceKind]int{}
			checked := 0
			sys.forecaster = sys.newForecaster()
			sys.initArrivalPool()
			engine := sim.Engine{Cycles: 3, WarmupCycles: 1}
			engine.Run(sim.Hooks{
				BeginCycle: sys.beginCycle,
				Subcycle: func(clock sim.Clock, measured bool) {
					sys.stepSubcycle(clock, measured)
					for _, p := range sys.players {
						if !sys.ps.online[p.ID] {
							continue
						}
						got, want := sys.linkForR(p, clock, kr), freshLink(sys, p, clock)
						if math.Float64bits(got.OneWayMs) != math.Float64bits(want.OneWayMs) ||
							math.Float64bits(got.EffectiveKbps) != math.Float64bits(want.EffectiveKbps) ||
							math.Float64bits(got.BaseJitterMs) != math.Float64bits(want.BaseJitterMs) {
							t.Fatalf("%v player %d (source %d): memoised link %+v, fresh %+v",
								clock, p.ID, sys.ps.src[p.ID], got, want)
						}
						seen[sys.ps.src[p.ID]]++
						checked++
					}
				},
				EndCycle: sys.endCycle,
			})
			for _, src := range tc.wantSources {
				if seen[src] == 0 {
					t.Errorf("no link from source %d checked (%v)", src, seen)
				}
			}
			if tc.migrations && sys.metrics.MigrationMs.N() == 0 {
				t.Error("no migration happened")
			}
			t.Logf("%d links checked, by source %v, %d migrations", checked, seen, sys.metrics.MigrationMs.N())
		})
	}
}
