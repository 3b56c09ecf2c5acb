package netmodel

import (
	"math"
	"testing"
	"testing/quick"

	"cloudfog/internal/geo"
	"cloudfog/internal/rng"
)

func testEndpoints(t *testing.T) (player, supernode, dc *Endpoint) {
	t.Helper()
	r := rng.New(1)
	player = NewPlayerEndpoint(1, geo.Point{X: 1000, Y: 1000}, r)
	supernode = NewSupernodeEndpoint(2, geo.Point{X: 1050, Y: 1020}, r)
	dc = NewDatacenterEndpoint(3, geo.Point{X: 4000, Y: 1950})
	return
}

func TestEndpointFactories(t *testing.T) {
	p, sn, dc := testEndpoints(t)
	if p.Class != ClassPlayer || sn.Class != ClassSupernode || dc.Class != ClassDatacenter {
		t.Error("wrong endpoint classes")
	}
	if p.UploadKbps*3 != p.DownloadKbps {
		t.Errorf("player upload %v is not download/3 (%v)", p.UploadKbps, p.DownloadKbps)
	}
	if p.AccessRTTMs <= 0 || p.DownloadKbps <= 0 {
		t.Error("player endpoint has non-positive link parameters")
	}
	if sn.UploadKbps < 20000 {
		t.Errorf("supernode upload %v below the superior-connection floor", sn.UploadKbps)
	}
	if dc.AccessRTTMs > 5 {
		t.Errorf("datacenter access RTT %v too large", dc.AccessRTTMs)
	}
}

func TestClassString(t *testing.T) {
	if ClassPlayer.String() != "player" || ClassSupernode.String() != "supernode" ||
		ClassDatacenter.String() != "datacenter" || NodeClass(0).String() != "unknown" {
		t.Error("NodeClass.String mismatch")
	}
}

func TestPathRTTDeterministicPerPair(t *testing.T) {
	m := NewModel(Params{}, 42)
	p, sn, _ := testEndpoints(t)
	a := m.PathRTTMs(p, sn)
	b := m.PathRTTMs(p, sn)
	c := m.PathRTTMs(sn, p)
	if a != b {
		t.Errorf("RTT not stable: %v vs %v", a, b)
	}
	if a != c {
		t.Errorf("RTT not symmetric: %v vs %v", a, c)
	}
}

func TestPathRTTComponents(t *testing.T) {
	m := NewModel(Params{}, 42)
	p, sn, dc := testEndpoints(t)
	rtt := m.PathRTTMs(p, sn)
	if rtt < p.AccessRTTMs+sn.AccessRTTMs {
		t.Errorf("RTT %v below sum of access RTTs", rtt)
	}
	// A remote datacenter must be slower than the nearby supernode in the
	// typical case (this pair is ~3000 km vs ~54 km).
	if m.PathRTTMs(p, dc) <= rtt {
		t.Errorf("remote DC RTT %v not larger than nearby supernode RTT %v",
			m.PathRTTMs(p, dc), rtt)
	}
}

func TestPathRTTGrowsWithDistanceOnAverage(t *testing.T) {
	m := NewModel(Params{}, 7)
	r := rng.New(9)
	var nearSum, farSum float64
	const n = 300
	for i := 0; i < n; i++ {
		base := geo.Point{X: 1000, Y: 1000}
		p := NewPlayerEndpoint(10+2*i, base, r)
		near := NewSupernodeEndpoint(11+2*i, geo.Point{X: 1030, Y: 1010}, r)
		far := NewSupernodeEndpoint(100000+i, geo.Point{X: 4200, Y: 2500}, r)
		nearSum += m.PathRTTMs(p, near)
		farSum += m.PathRTTMs(p, far)
	}
	if farSum <= nearSum*1.5 {
		t.Errorf("distance barely affects RTT: near %v far %v", nearSum/n, farSum/n)
	}
}

func TestOneWayIsHalfRTT(t *testing.T) {
	m := NewModel(Params{}, 42)
	p, sn, _ := testEndpoints(t)
	if got, want := m.OneWayMs(p, sn), m.PathRTTMs(p, sn)/2; got != want {
		t.Errorf("OneWayMs = %v, want %v", got, want)
	}
}

func TestCongestionFactorRangeProperty(t *testing.T) {
	m := NewModel(Params{}, 3)
	f := func(link uint16, cycle, sub uint8) bool {
		c := m.CongestionFactor(int(link), int(cycle), int(sub)%24+1)
		return c == m.Params().CongestionDipFactor || (c >= 0.75 && c <= 1.0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCongestionDeterministic(t *testing.T) {
	m := NewModel(Params{}, 3)
	if m.CongestionFactor(5, 2, 7) != m.CongestionFactor(5, 2, 7) {
		t.Error("congestion factor not deterministic")
	}
	// Different subcycles should vary over time.
	same := true
	base := m.CongestionFactor(5, 2, 1)
	for sub := 2; sub <= 24; sub++ {
		if m.CongestionFactor(5, 2, sub) != base {
			same = false
			break
		}
	}
	if same {
		t.Error("congestion factor constant across subcycles")
	}
}

func TestCongestionDipFrequency(t *testing.T) {
	m := NewModel(Params{}, 4)
	dips := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.CongestionFactor(i, i/24, i%24+1) == m.Params().CongestionDipFactor {
			dips++
		}
	}
	p := float64(dips) / n
	if math.Abs(p-m.Params().CongestionDipProbability) > 0.01 {
		t.Errorf("dip frequency %v, want ~%v", p, m.Params().CongestionDipProbability)
	}
}

func TestParamsDefaults(t *testing.T) {
	m := NewModel(Params{}, 1)
	p := m.Params()
	if p.PropagationMsPerKm <= 0 || p.JitterScaleMinimum <= 0 ||
		p.JitterFullDistanceKm <= 0 || p.CongestionDipProbability <= 0 ||
		p.CongestionDipFactor <= 0 || p.Trace == nil {
		t.Errorf("defaults not filled: %+v", p)
	}
}

func TestParamsOverridesKept(t *testing.T) {
	m := NewModel(Params{PropagationMsPerKm: 0.02, CongestionDipProbability: 0.5}, 1)
	if m.Params().PropagationMsPerKm != 0.02 {
		t.Error("override lost")
	}
	if m.Params().CongestionDipProbability != 0.5 {
		t.Error("override lost")
	}
}

func TestSupernodeCapacity(t *testing.T) {
	r := rng.New(5)
	for i := 0; i < 5000; i++ {
		c := SupernodeCapacity(r, 5, 40)
		if c < 5 || c > 40 {
			t.Fatalf("capacity %d outside [5,40]", c)
		}
	}
}

func TestSupernodeCapacityParetoShape(t *testing.T) {
	// Small capacities must dominate large ones under Pareto(α=2).
	r := rng.New(6)
	small, large := 0, 0
	for i := 0; i < 20000; i++ {
		c := SupernodeCapacity(r, 5, 1000)
		if c <= 10 {
			small++
		}
		if c >= 50 {
			large++
		}
	}
	if small <= large*5 {
		t.Errorf("Pareto shape wrong: small=%d large=%d", small, large)
	}
}

func TestModelSeedChangesJitter(t *testing.T) {
	p, sn, _ := testEndpoints(t)
	a := NewModel(Params{}, 1).PathRTTMs(p, sn)
	b := NewModel(Params{}, 2).PathRTTMs(p, sn)
	if a == b {
		t.Error("different model seeds produced identical jitter")
	}
}
