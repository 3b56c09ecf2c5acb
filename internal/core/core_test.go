package core

import (
	"testing"

	"cloudfog/internal/workload"
)

// quickConfig returns a small deployment that runs in milliseconds.
func quickConfig(mode Mode) Config {
	cfg := PeerSim()
	cfg.Mode = mode
	cfg.Players = 300
	cfg.Supernodes = 25
	cfg.SupernodeCandidates = 40
	cfg.CDNServers = 12
	cfg.Seed = 7
	return cfg
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewSystem(Config{Players: 10}); err == nil {
		t.Error("zero datacenters accepted")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	cfg, err := Config{Players: 100, Datacenters: 2}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != ModeCloudFog || cfg.ServersPerDC != 50 || cfg.Lambda != 0.9 ||
		cfg.Theta != 0.5 || cfg.UpdateKbps != 150 || cfg.CandidateListSize != 8 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.SupernodeCandidates != 10 {
		t.Errorf("candidate pool default = %d, want players/10", cfg.SupernodeCandidates)
	}
}

func TestModeString(t *testing.T) {
	if ModeCloud.String() != "Cloud" || ModeCDN.String() != "CDN" ||
		ModeCloudFog.String() != "CloudFog" || Mode(0).String() != "unknown" {
		t.Error("Mode.String mismatch")
	}
}

func TestWorldConstruction(t *testing.T) {
	sys, err := NewSystem(quickConfig(ModeCloudFog))
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Players()) != 300 {
		t.Errorf("players = %d", len(sys.Players()))
	}
	if sys.graph.N() != 300 {
		t.Error("graph size mismatch")
	}
	if sys.Fog() == nil {
		t.Fatal("fog missing in CloudFog mode")
	}
	if got := sys.Fog().NumActive(); got != 25 {
		t.Errorf("active supernodes = %d", got)
	}
	if len(sys.Fog().All()) != 40 {
		t.Errorf("candidate pool = %d", len(sys.Fog().All()))
	}
	if sys.cloud.NumServers() != 5*50 {
		t.Errorf("servers = %d", sys.cloud.NumServers())
	}
	// Every player has a nearest-datacenter assignment and an endpoint.
	for _, p := range sys.Players() {
		if p.Endpoint == nil {
			t.Fatal("player without endpoint")
		}
		if dc := sys.ps.dc[p.ID]; dc < 0 || dc >= 5 {
			t.Fatalf("player dc = %d", dc)
		}
	}
}

func TestCloudModeHasNoFog(t *testing.T) {
	sys, err := NewSystem(quickConfig(ModeCloud))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Fog() != nil {
		t.Error("cloud mode built a fog")
	}
}

func TestRunProducesMetrics(t *testing.T) {
	sys, err := NewSystem(quickConfig(ModeCloudFog))
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(4, 2)
	snap := m.Snapshot()
	if snap.Sessions == 0 {
		t.Fatal("no sessions measured")
	}
	if snap.MeanResponseLatencyMs <= 0 {
		t.Error("no response latency recorded")
	}
	if snap.MeanContinuity <= 0 || snap.MeanContinuity > 1 {
		t.Errorf("continuity = %v", snap.MeanContinuity)
	}
	if snap.MeanCloudEgressMbps < 0 {
		t.Error("negative egress")
	}
	if snap.MeanPlayerJoinMs <= 0 {
		t.Error("no join latency recorded")
	}
	if snap.FogServedFraction <= 0 {
		t.Error("fog served nobody")
	}
	if snap.MeanOnlinePlayers <= 0 {
		t.Error("nobody online")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Snapshot {
		sys, err := NewSystem(quickConfig(ModeCloudFog))
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(3, 1).Snapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	sysA, _ := NewSystem(cfg)
	cfg.Seed = 99
	sysB, _ := NewSystem(cfg)
	a := sysA.Run(3, 1).Snapshot()
	b := sysB.Run(3, 1).Snapshot()
	if a == b {
		t.Error("different seeds produced identical snapshots")
	}
}

func TestModesOrderings(t *testing.T) {
	// The headline result at small scale: CloudFog consumes far less
	// cloud bandwidth than Cloud, and Cloud consumes the most.
	snaps := map[Mode]Snapshot{}
	for _, mode := range []Mode{ModeCloud, ModeCDN, ModeCloudFog} {
		cfg := quickConfig(mode)
		cfg.AlwaysOn = true
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snaps[mode] = sys.Run(4, 2).Snapshot()
	}
	if !(snaps[ModeCloud].MeanCloudEgressMbps > snaps[ModeCDN].MeanCloudEgressMbps) {
		t.Errorf("egress: Cloud %v <= CDN %v",
			snaps[ModeCloud].MeanCloudEgressMbps, snaps[ModeCDN].MeanCloudEgressMbps)
	}
	if !(snaps[ModeCDN].MeanCloudEgressMbps > snaps[ModeCloudFog].MeanCloudEgressMbps) {
		t.Errorf("egress: CDN %v <= CloudFog %v",
			snaps[ModeCDN].MeanCloudEgressMbps, snaps[ModeCloudFog].MeanCloudEgressMbps)
	}
	if !(snaps[ModeCloudFog].MeanResponseLatencyMs < snaps[ModeCloud].MeanResponseLatencyMs) {
		t.Errorf("latency: CloudFog %v >= Cloud %v",
			snaps[ModeCloudFog].MeanResponseLatencyMs, snaps[ModeCloud].MeanResponseLatencyMs)
	}
}

func TestAdvancedBeatsBasic(t *testing.T) {
	run := func(s Strategies) Snapshot {
		cfg := quickConfig(ModeCloudFog)
		cfg.AlwaysOn = true
		cfg.Strategies = s
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(8, 4).Snapshot()
	}
	basic := run(Strategies{})
	advanced := run(AllStrategies())
	if advanced.MeanContinuity <= basic.MeanContinuity {
		t.Errorf("CloudFog/A continuity %v <= /B %v",
			advanced.MeanContinuity, basic.MeanContinuity)
	}
	if advanced.MeanResponseLatencyMs >= basic.MeanResponseLatencyMs {
		t.Errorf("CloudFog/A latency %v >= /B %v",
			advanced.MeanResponseLatencyMs, basic.MeanResponseLatencyMs)
	}
}

func TestSupernodeFailureMigration(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.AlwaysOn = true
	cfg.FailSupernodesPerCycle = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(4, 1)
	if m.MigrationMs.N() == 0 {
		t.Fatal("failure injection produced no migrations")
	}
	if m.MigrationMs.Mean() <= 0 {
		t.Error("zero migration latency")
	}
	// Fleet must be stable: failed supernodes rejoin.
	if got := sys.Fog().NumActive(); got != cfg.Supernodes {
		t.Errorf("active supernodes after failures = %d, want %d", got, cfg.Supernodes)
	}
}

func TestChurnModeArrivals(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Arrivals = &workload.ArrivalScript{OffPeakPerMinute: 0.5, PeakPerMinute: 2}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(4, 1)
	snap := m.Snapshot()
	if snap.MeanOnlinePlayers <= 0 {
		t.Fatal("churn mode produced no online players")
	}
	if snap.Sessions == 0 {
		t.Fatal("churn mode recorded no sessions")
	}
}

func TestProvisioningScalesFleet(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Arrivals = &workload.ArrivalScript{OffPeakPerMinute: 0.5, PeakPerMinute: 3}
	cfg.Strategies = Strategies{Provisioning: true}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(6, 2)
	if m.ActiveSupernodes.N() == 0 {
		t.Fatal("no supernode counts recorded")
	}
	// Provisioning must actually vary the fleet.
	if m.ActiveSupernodes.Variance() == 0 {
		t.Errorf("fleet never varied: always %v", m.ActiveSupernodes.Mean())
	}
}

func TestFixedPoolHolds(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Arrivals = &workload.ArrivalScript{OffPeakPerMinute: 0.5, PeakPerMinute: 3}
	cfg.FixedSupernodePool = 10
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(4, 1)
	if m.ActiveSupernodes.Mean() != 10 || m.ActiveSupernodes.Variance() != 0 {
		t.Errorf("fixed pool varied: mean=%v variance=%v",
			m.ActiveSupernodes.Mean(), m.ActiveSupernodes.Variance())
	}
}

func TestSocialAssignmentReducesComm(t *testing.T) {
	run := func(social bool) Snapshot {
		cfg := quickConfig(ModeCloudFog)
		cfg.Players = 600
		cfg.Datacenters = 1
		cfg.ServersPerDC = 20
		cfg.AlwaysOn = true
		cfg.Strategies = Strategies{SocialAssignment: social}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(4, 2).Snapshot()
	}
	with, without := run(true), run(false)
	if with.MeanServerCommMs >= without.MeanServerCommMs {
		t.Errorf("social assignment did not cut server comm: %v vs %v",
			with.MeanServerCommMs, without.MeanServerCommMs)
	}
	if with.MeanModularity <= 0 {
		t.Errorf("modularity %v not positive", with.MeanModularity)
	}
	if with.MeanServerAssignMs <= 0 {
		t.Error("assignment latency not recorded")
	}
}

func TestSnapshotOtherLatencyDecomposition(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Run(3, 1).Snapshot()
	sum := snap.MeanServerCommMs + snap.MeanOtherLatencyMs
	if diff := sum - snap.MeanResponseLatencyMs; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("decomposition broken: %v + %v != %v",
			snap.MeanServerCommMs, snap.MeanOtherLatencyMs, snap.MeanResponseLatencyMs)
	}
}

func TestForcedSupernodeLoad(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.ForcedSupernodeLoad = 7
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range sys.Fog().All() {
		if sn.Capacity != 7 {
			t.Fatalf("supernode capacity %d, want forced 7", sn.Capacity)
		}
	}
}

func TestPlanetLabProfile(t *testing.T) {
	cfg := PlanetLab()
	cfg.Players = 200
	cfg.Supernodes = 10
	cfg.SupernodeCandidates = 15
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Run(3, 1).Snapshot()
	if snap.Sessions == 0 {
		t.Error("PlanetLab profile produced no sessions")
	}
	if len(sys.cloud.Datacenters()) != 2 {
		t.Errorf("PlanetLab datacenters = %d", len(sys.cloud.Datacenters()))
	}
}

func TestCoverageStudy(t *testing.T) {
	cfg := PeerSim()
	cfg.Players = 800
	cs, err := NewCoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ths := []float64{30, 70, 110}
	cov5 := cs.CoverageVsDatacenters(5, ths)
	cov25 := cs.CoverageVsDatacenters(25, ths)
	for i := range ths {
		if cov5[i] < 0 || cov5[i] > 1 {
			t.Fatalf("coverage out of range: %v", cov5[i])
		}
		if cov25[i] < cov5[i]-1e-9 {
			t.Errorf("more datacenters reduced coverage at %vms: %v -> %v",
				ths[i], cov5[i], cov25[i])
		}
	}
	// Stricter requirements cover fewer players.
	if !(cov5[0] <= cov5[1] && cov5[1] <= cov5[2]) {
		t.Errorf("coverage not monotone in requirement: %v", cov5)
	}
	// Supernodes help beyond the datacenter baseline.
	base := cs.CoverageVsSupernodes(0, ths)
	many := cs.CoverageVsSupernodes(300, ths)
	for i := range ths {
		if many[i] < base[i]-1e-9 {
			t.Errorf("supernodes reduced coverage at %vms", ths[i])
		}
	}
	if many[1] <= base[1] {
		t.Errorf("300 supernodes did not raise 70ms coverage: %v vs %v", many[1], base[1])
	}
}

func TestCoverageStudyValidation(t *testing.T) {
	if _, err := NewCoverageStudy(Config{}); err == nil {
		t.Error("invalid coverage config accepted")
	}
}

// TestStateDigestDeterministic is the simulator-side replay assertion the
// recovery work leans on: identical configs driven through the full
// protocol land on the identical state digest, and a different seed lands
// elsewhere.
func TestStateDigestDeterministic(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := quickConfig(ModeCloudFog)
		cfg.Seed = seed
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(2, 1)
		return sys.StateDigest()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged: %#x vs %#x", a, b)
	}
	if c := run(8); c == a {
		t.Errorf("different seed produced identical digest %#x", c)
	}
}
