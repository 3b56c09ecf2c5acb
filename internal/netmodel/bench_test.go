package netmodel

import (
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/rng"
)

// BenchmarkPathRTT measures one deterministic pairwise-latency evaluation,
// the hottest call of the simulator.
func BenchmarkPathRTT(b *testing.B) {
	r := rng.New(1)
	m := NewModel(Params{}, 1)
	p := NewPlayerEndpoint(1, geo.Point{X: 1000, Y: 1000}, r)
	sn := NewSupernodeEndpoint(2, geo.Point{X: 1100, Y: 1050}, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PathRTTMs(r, p, sn)
	}
}

// BenchmarkCongestionFactor measures the deterministic per-link congestion
// draw.
func BenchmarkCongestionFactor(b *testing.B) {
	m := NewModel(Params{}, 1)
	r := rng.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CongestionFactor(r, i, i/24, i%24+1)
	}
}
