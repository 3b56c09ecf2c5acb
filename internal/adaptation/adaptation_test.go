package adaptation

import (
	"testing"
	"testing/quick"

	"cloudfog/internal/game"
)

func TestBeta(t *testing.T) {
	// Largest relative step of the Table 2 ladder: 300->500 is +66.7%.
	beta := Beta()
	if beta < 0.66 || beta > 0.67 {
		t.Errorf("Beta = %v, want ~2/3", beta)
	}
}

func TestNewControllerClamps(t *testing.T) {
	c := NewController(Config{}, 99)
	if c.Level() != game.NumQualityLevels {
		t.Errorf("start level clamped to %d", c.Level())
	}
	c = NewController(Config{MaxLevel: 3}, 5)
	if c.Level() != 3 {
		t.Errorf("start level above MaxLevel: %d", c.Level())
	}
	c = NewController(Config{}, 0)
	if c.Level() != 1 {
		t.Errorf("start level below 1: %d", c.Level())
	}
}

func TestThresholds(t *testing.T) {
	c := NewController(Config{Theta: 0.5, Rho: 1}, 3)
	if got, want := c.DownThreshold(), 0.5; got != want {
		t.Errorf("DownThreshold = %v", got)
	}
	if got, want := c.UpThreshold(), 1+Beta(); got != want {
		t.Errorf("UpThreshold = %v, want %v", got, want)
	}
	// Latency-sensitive game (rho = 0.5): both bars double.
	cs := NewController(Config{Theta: 0.5, Rho: 0.5}, 3)
	if cs.UpThreshold() != 2*c.UpThreshold() || cs.DownThreshold() != 2*c.DownThreshold() {
		t.Error("rho scaling broken")
	}
}

func TestAdjustDownUnderStarvation(t *testing.T) {
	c := NewController(Config{Debounce: 3}, 5)
	// Delivering half the playback rate drains the buffer; after the
	// debounce the controller must step down.
	downs := 0
	now := 0.0
	for i := 0; i < 40 && c.Level() > 1; i++ {
		now += 1
		if c.Observe(now, c.BitrateKbps()*0.5) == Down {
			downs++
		}
	}
	if downs == 0 {
		t.Fatal("controller never adjusted down under starvation")
	}
	if c.Level() != 1 {
		t.Errorf("level after sustained starvation = %d, want 1", c.Level())
	}
	if c.Switches() != downs {
		t.Errorf("Switches = %d, want %d", c.Switches(), downs)
	}
}

func TestAdjustUpWithHeadroom(t *testing.T) {
	c := NewController(Config{Debounce: 3}, 1)
	now := 0.0
	ups := 0
	for i := 0; i < 200 && c.Level() < game.NumQualityLevels; i++ {
		now += 1
		// Twice the playback rate: the buffer builds beyond (1+β).
		if c.Observe(now, c.BitrateKbps()*2) == Up {
			ups++
		}
	}
	if c.Level() != game.NumQualityLevels {
		t.Errorf("level after sustained headroom = %d, want %d", c.Level(), game.NumQualityLevels)
	}
	if ups != game.NumQualityLevels-1 {
		t.Errorf("ups = %d", ups)
	}
}

func TestMaxLevelCap(t *testing.T) {
	c := NewController(Config{MaxLevel: 2, Debounce: 1}, 1)
	now := 0.0
	for i := 0; i < 100; i++ {
		now += 1
		c.Observe(now, c.BitrateKbps()*3)
	}
	if c.Level() > 2 {
		t.Errorf("level %d exceeded MaxLevel 2 (the game's default quality)", c.Level())
	}
}

func TestDebouncePreventsSingleSpikeSwitch(t *testing.T) {
	c := NewController(Config{Debounce: 3}, 3)
	now := 1.0
	// Build a normal buffer first.
	for i := 0; i < 3; i++ {
		c.Observe(now, c.BitrateKbps())
		now += 1
	}
	// One starvation observation must not switch.
	if d := c.Observe(now, 0); d != Hold {
		t.Errorf("single spike switched: %v", d)
	}
	now += 1
	// A strong recovery resets the streak; isolated dips separated by
	// recoveries never accumulate to the debounce.
	for i := 0; i < 10; i++ {
		if d := c.Observe(now, c.BitrateKbps()*2.0); d == Down {
			t.Fatalf("recovery observation switched down")
		}
		now += 1
		if d := c.Observe(now, 0); d == Down {
			t.Fatal("isolated dips accumulated across resets")
		}
		now += 1
	}
}

func TestDisabledPinsBitrate(t *testing.T) {
	c := NewController(Config{Disabled: true, Debounce: 1}, 4)
	now := 0.0
	for i := 0; i < 50; i++ {
		now += 1
		if d := c.Observe(now, 0); d != Hold {
			t.Fatalf("disabled controller switched: %v", d)
		}
	}
	if c.Level() != 4 || c.Switches() != 0 {
		t.Errorf("disabled controller moved: level=%d switches=%d", c.Level(), c.Switches())
	}
}

func TestBufferNeverNegativeProperty(t *testing.T) {
	// Property: whatever the delivery pattern, buffered segments >= 0.
	f := func(deliveries []uint8) bool {
		c := NewController(Config{}, 3)
		now := 0.0
		for _, d := range deliveries {
			now += 1
			c.Observe(now, float64(d)*20)
			if c.BufferedSegments() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevelInRangeProperty(t *testing.T) {
	f := func(deliveries []uint16) bool {
		c := NewController(Config{Debounce: 1}, 3)
		now := 0.0
		for _, d := range deliveries {
			now += 1
			c.Observe(now, float64(d))
			if c.Level() < 1 || c.Level() > game.NumQualityLevels {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeGoingBackwardIsIgnored(t *testing.T) {
	c := NewController(Config{}, 3)
	c.Observe(10, 5000)
	before := c.BufferedSegments()
	c.Observe(5, 5000) // dt < 0 must not drain or grow the buffer
	if c.BufferedSegments() != before {
		t.Errorf("backwards time changed buffer: %v -> %v", before, c.BufferedSegments())
	}
}

func TestStringAndDecisionString(t *testing.T) {
	c := NewController(Config{}, 2)
	if c.String() == "" {
		t.Error("empty String")
	}
	if Hold.String() != "hold" || Up.String() != "up" || Down.String() != "down" ||
		Decision(0).String() != "unknown" {
		t.Error("Decision.String mismatch")
	}
}

func TestRhoMakesSensitiveGamesShedEarlier(t *testing.T) {
	// With the same buffer trajectory, a latency-sensitive game (low rho,
	// higher down bar) must switch down no later than a tolerant one.
	run := func(rho float64) int {
		c := NewController(Config{Rho: rho, Debounce: 2}, 3)
		now := 0.0
		// Build ~1.2 segments of buffer, then starve slowly.
		for i := 0; i < 3; i++ {
			now += 1
			c.Observe(now, c.BitrateKbps()*1.4)
		}
		steps := 0
		for i := 0; i < 100; i++ {
			now += 1
			steps++
			if c.Observe(now, c.BitrateKbps()*0.92) == Down {
				return steps
			}
		}
		return steps
	}
	if sensitive, tolerant := run(0.6), run(1.0); sensitive > tolerant {
		t.Errorf("sensitive game switched later (%d) than tolerant (%d)", sensitive, tolerant)
	}
}

func TestLossVetoesUpSwitch(t *testing.T) {
	c := NewController(Config{Debounce: 3}, 1)
	c.NoteLoss(0.1) // above DefaultLossDownThreshold
	now := 0.0
	for i := 0; i < 50; i++ {
		now += 1
		// Plenty of bandwidth: without loss this climbs the ladder.
		if d := c.Observe(now, c.BitrateKbps()*3); d == Up {
			t.Fatalf("up-switch at step %d despite 10%% datagram loss", i)
		}
	}
	if c.Level() != 1 {
		t.Errorf("level = %d, want 1 (loss veto)", c.Level())
	}
}

func TestLossForcesDownThenRecovers(t *testing.T) {
	c := NewController(Config{Debounce: 2}, 5)
	now := 0.0
	// Build a comfortable buffer first so the down-pressure is loss-driven,
	// not starvation-driven.
	for i := 0; i < 20; i++ {
		now += 1
		c.Observe(now, c.BitrateKbps()*2)
	}
	c.NoteLoss(0.2)
	for i := 0; i < 10 && c.Level() > 3; i++ {
		now += 1
		c.Observe(now, c.BitrateKbps())
	}
	if c.Level() >= 5 {
		t.Fatalf("level = %d, want a down-step under 20%% loss", c.Level())
	}
	if !c.Lossy() {
		t.Error("Lossy() = false at 20% loss")
	}
	// Healed link: loss clears, headroom climbs the ladder again.
	c.NoteLoss(0)
	for i := 0; i < 200 && c.Level() < 5; i++ {
		now += 1
		c.Observe(now, c.BitrateKbps()*3)
	}
	if c.Level() != 5 {
		t.Errorf("level = %d after heal, want 5", c.Level())
	}
}
