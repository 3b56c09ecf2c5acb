package streaming

import (
	"math"
	"testing"
	"testing/quick"

	"cloudfog/internal/game"
)

func TestFrameAndPacketBits(t *testing.T) {
	// 1200 kbps at 30 fps: 40,000 bits per frame, 10,000 per packet.
	if got := FrameBits(1200); got != 40000 {
		t.Errorf("FrameBits = %v", got)
	}
	if got := PacketBits(1200); got != 10000 {
		t.Errorf("PacketBits = %v", got)
	}
}

func TestOnTimeProbabilityBounds(t *testing.T) {
	// Property: probability always in [0, 1] for any inputs.
	f := func(oneway, eff, bitrate, req uint16) bool {
		link := Link{OneWayMs: float64(oneway % 500), EffectiveKbps: float64(eff)}
		p := OnTimeProbability(link, float64(bitrate), float64(req%300))
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOnTimeProbabilityEdges(t *testing.T) {
	link := Link{OneWayMs: 10, EffectiveKbps: 5000}
	if got := OnTimeProbability(link, 0, 50); got != 1 {
		t.Errorf("zero bitrate on-time = %v, want 1", got)
	}
	if got := OnTimeProbability(Link{OneWayMs: 10}, 1000, 50); got != 0 {
		t.Errorf("zero bandwidth on-time = %v, want 0", got)
	}
	// Requirement below the one-way latency: impossible.
	if got := OnTimeProbability(Link{OneWayMs: 100, EffectiveKbps: 5000}, 300, 50); got != 0 {
		t.Errorf("infeasible requirement on-time = %v, want 0", got)
	}
}

func TestOnTimeMonotoneInRequirement(t *testing.T) {
	link := Link{OneWayMs: 15, EffectiveKbps: 4000}
	prev := -1.0
	for req := 20.0; req <= 150; req += 10 {
		p := OnTimeProbability(link, 1200, req)
		if p < prev {
			t.Fatalf("on-time not monotone in requirement at %v: %v < %v", req, p, prev)
		}
		prev = p
	}
}

func TestOnTimeMonotoneInBandwidth(t *testing.T) {
	prev := -1.0
	for eff := 500.0; eff <= 20000; eff *= 2 {
		p := OnTimeProbability(Link{OneWayMs: 15, EffectiveKbps: eff}, 1200, 90)
		if p < prev-1e-12 {
			t.Fatalf("on-time not monotone in bandwidth at %v: %v < %v", eff, p, prev)
		}
		prev = p
	}
}

func TestOnTimeDecreasesWithDistance(t *testing.T) {
	near := OnTimeProbability(Link{OneWayMs: 10, EffectiveKbps: 5000}, 1200, 90)
	far := OnTimeProbability(Link{OneWayMs: 70, EffectiveKbps: 5000}, 1200, 90)
	if far >= near {
		t.Errorf("distant path on-time %v >= near %v", far, near)
	}
}

func TestLowerBitrateHelpsOnCongestedLink(t *testing.T) {
	// The premise of the receiver-driven adaptation: shedding quality
	// raises the on-time fraction on a tight link.
	link := Link{OneWayMs: 20, EffectiveKbps: 1500}
	high := OnTimeProbability(link, game.MustQuality(5).BitrateKbps, 90)
	low := OnTimeProbability(link, game.MustQuality(2).BitrateKbps, 90)
	if low <= high {
		t.Errorf("adaptation premise broken: low %v <= high %v", low, high)
	}
}

func TestSaturatedLinkCapsDeliverableFraction(t *testing.T) {
	// Bitrate twice the link: at most half the packets can ever arrive.
	link := Link{OneWayMs: 5, EffectiveKbps: 600}
	p := OnTimeProbability(link, 1200, 1000)
	if p > 0.5 {
		t.Errorf("saturated link on-time %v > deliverable fraction 0.5", p)
	}
}

func TestNetworkLatency(t *testing.T) {
	link := Link{OneWayMs: 30, EffectiveKbps: 4000, BaseJitterMs: 2}
	lat := NetworkLatencyMs(link, 1200)
	trans := PacketBits(1200) / 4000
	if lat < 30+trans {
		t.Errorf("latency %v below oneway+transmission", lat)
	}
	if math.IsInf(NetworkLatencyMs(Link{OneWayMs: 1}, 100), 1) != true {
		t.Error("zero-bandwidth latency should be +Inf")
	}
}

func TestNetworkLatencyGrowsWithUtilization(t *testing.T) {
	lightly := NetworkLatencyMs(Link{OneWayMs: 10, EffectiveKbps: 20000}, 1200)
	heavily := NetworkLatencyMs(Link{OneWayMs: 10, EffectiveKbps: 1300}, 1200)
	if heavily <= lightly {
		t.Errorf("queueing term missing: %v <= %v", heavily, lightly)
	}
}

func TestDeliveredKbps(t *testing.T) {
	// Unsaturated link: the sender prefetches at PrefetchFactor x bitrate.
	if got := DeliveredKbps(Link{EffectiveKbps: 5000}, 1200); got != PrefetchFactor*1200 {
		t.Errorf("unsaturated delivered = %v, want %v", got, PrefetchFactor*1200)
	}
	// Saturated link: delivery is capped by the link.
	if got := DeliveredKbps(Link{EffectiveKbps: 800}, 1200); got != 800 {
		t.Errorf("saturated delivered = %v", got)
	}
	// Link between bitrate and prefetch pace: still link-bound.
	if got := DeliveredKbps(Link{EffectiveKbps: 1500}, 1200); got != 1500 {
		t.Errorf("mid delivered = %v", got)
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	if m.Observed() || m.Continuity() != 0 || m.Satisfied() {
		t.Error("zero meter misbehaves")
	}
	m.Observe(1, 0.9)
	m.Observe(3, 0.5)
	if !m.Observed() {
		t.Error("meter not observed")
	}
	wantCont := (1*0.9 + 3*0.5) / 4
	if math.Abs(m.Continuity()-wantCont) > 1e-12 {
		t.Errorf("continuity = %v, want %v", m.Continuity(), wantCont)
	}
}

func TestMeterClampsAndIgnoresBadDurations(t *testing.T) {
	var m Meter
	m.Observe(0, 0.5)  // ignored
	m.Observe(-1, 0.5) // ignored
	if m.Observed() {
		t.Error("non-positive durations recorded")
	}
	m.Observe(1, 1.7)
	if m.Continuity() != 1 {
		t.Errorf("p>1 not clamped: %v", m.Continuity())
	}
	m.Observe(1, -0.5)
	if m.Continuity() != 0.5 {
		t.Errorf("p<0 not clamped: %v", m.Continuity())
	}
}

func TestMeterSatisfied(t *testing.T) {
	var m Meter
	m.Observe(1, 0.96)
	if !m.Satisfied() {
		t.Error("96% on-time should satisfy the 95% bar")
	}
	m.Observe(1, 0.5)
	if m.Satisfied() {
		t.Error("73% on-time satisfied")
	}
}

func TestMeterContinuityBoundedProperty(t *testing.T) {
	f := func(obs []uint8) bool {
		var m Meter
		for i, o := range obs {
			m.Observe(float64(i%3)+0.5, float64(o)/200)
		}
		c := m.Continuity()
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlayoutBudgetConstants(t *testing.T) {
	if PlayoutDelayMs != 20 {
		t.Errorf("PlayoutDelayMs = %v, want the paper's 20", PlayoutDelayMs)
	}
	if SatisfactionThreshold != 0.95 {
		t.Errorf("SatisfactionThreshold = %v, want 0.95", SatisfactionThreshold)
	}
}
