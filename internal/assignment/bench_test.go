package assignment

import (
	"testing"

	"cloudfog/internal/rng"
	"cloudfog/internal/social"
)

// BenchmarkAssign measures the full server-assignment pipeline (greedy +
// swap refinement + polish) over a 5,000-player guild graph — the weekly
// reassignment cost of §3.4.
func BenchmarkAssign(b *testing.B) {
	g := social.Generate(social.GenerateConfig{N: 5000, Skew: 1.5}, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assign(g, Config{Servers: 50}, rng.New(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModularity measures one Γ evaluation, the inner loop of the
// swap refinement.
func BenchmarkModularity(b *testing.B) {
	g := social.Generate(social.GenerateConfig{N: 5000, Skew: 1.5}, rng.New(1))
	community := Random(5000, 50, rng.New(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		social.Modularity(g, community, 50)
	}
}

// BenchmarkAssign50k is one weekly reassignment at sim_fog_50k's scale:
// 50,000 players on PeerSim's 250 servers (5 datacenters × 50).
func BenchmarkAssign50k(b *testing.B) {
	g := social.Generate(social.GenerateConfig{N: 50000, Skew: 1.5}, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assign(g, Config{Servers: 250}, rng.New(2)); err != nil {
			b.Fatal(err)
		}
	}
}
