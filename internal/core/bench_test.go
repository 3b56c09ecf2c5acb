package core

import (
	"runtime"
	"testing"

	"cloudfog/internal/workload"
)

// The simulator scale benchmarks (`go test -run '^$' -bench SimPlayers
// -benchtime 1x ./internal/core`). Each row simulates a full seeded
// deployment and reports:
//
//   - playerticks/s — player-subcycle evaluations per wall second, the
//     simulator's throughput. The Seq/Par pairs at one scale share a config
//     except for Config.Workers (1 vs GOMAXPROCS), so their ratio is the
//     parallel speedup
//     (≈1 on a single-core runner). The figure the repo tracks is
//     sim_playerticks_per_s on bench/'s sim_fog_50k workload.
//   - heapMB/run — the Go heap footprint after the run, the streaming-
//     metrics memory bar: O(1) in players means the 1M row stays within CI
//     memory limits instead of accumulating 24M raw float64 samples.
//
// The 10k row is the paper's PeerSim deployment (CloudFog/A, every player
// concurrent — the heaviest per-tick path: fog selection, adaptation,
// reputation). The 100k and 1M rows scale the population in ModeCloud,
// which isolates the tick loop itself: fog capacity is fixed by the paper's
// deployment, so at 100× population the fog would serve a sliver of players
// and the run would measure cloud fallback anyway.

func benchSimConfig(players int) Config {
	cfg := PeerSim()
	cfg.AlwaysOn = true
	if players <= cfg.Players {
		cfg.Strategies = AllStrategies()
		return cfg
	}
	cfg.Mode = ModeCloud
	cfg.Players = players
	cfg.SupernodeCandidates = 1 // skip building an unused 100k-node fog
	return cfg
}

func runSimBench(b *testing.B, players, cycles, workers int) {
	cfg := benchSimConfig(players)
	cfg.Workers = workers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(cycles, 0)
	}
	ticks := float64(players) * float64(workload.SubcyclesPerCycle) * float64(cycles) * float64(b.N)
	b.ReportMetric(ticks/b.Elapsed().Seconds(), "playerticks/s")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapSys)/1e6, "heapMB/run")
}

func BenchmarkSimPlayers10kSeq(b *testing.B)  { runSimBench(b, 10_000, 2, 1) }
func BenchmarkSimPlayers10kPar(b *testing.B)  { runSimBench(b, 10_000, 2, 0) }
func BenchmarkSimPlayers100kSeq(b *testing.B) { runSimBench(b, 100_000, 1, 1) }
func BenchmarkSimPlayers100kPar(b *testing.B) { runSimBench(b, 100_000, 1, 0) }
func BenchmarkSimPlayers1MPar(b *testing.B)   { runSimBench(b, 1_000_000, 1, 0) }
