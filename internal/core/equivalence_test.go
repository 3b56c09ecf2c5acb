package core

import (
	"reflect"
	"runtime"
	"testing"

	"cloudfog/internal/workload"
)

// The parallel determinism contract (parallel.go): for any worker count,
// a seeded run's outputs — metrics snapshot, quantiles, and the full state
// digest — are bit-identical to the single worker that runs on the caller
// (Workers = 1). These tests are the enforcement; they are what lets
// `-parallel` default to GOMAXPROCS.

// equivalenceConfigs covers every code path whose interleaving could
// plausibly diverge under concurrency: fog selection with all strategies
// (co-play recording, adaptation, provisioning), the plain cloud and CDN
// baselines, churn-mode arrivals, and supernode failure injection.
func equivalenceConfigs() map[string]Config {
	cloudFog := quickConfig(ModeCloudFog)
	cloudFog.Strategies = AllStrategies()

	alwaysOn := quickConfig(ModeCloudFog)
	alwaysOn.Strategies = AllStrategies()
	alwaysOn.AlwaysOn = true

	churn := quickConfig(ModeCloudFog)
	churn.Arrivals = &workload.ArrivalScript{OffPeakPerMinute: 0.5, PeakPerMinute: 2}

	failures := quickConfig(ModeCloudFog)
	failures.FailSupernodesPerCycle = 2

	return map[string]Config{
		"cloudfog-advanced": cloudFog,
		"cloudfog-alwayson": alwaysOn,
		"cloud":             quickConfig(ModeCloud),
		"cdn":               quickConfig(ModeCDN),
		"churn":             churn,
		"failures":          failures,
	}
}

func runWithWorkers(t *testing.T, cfg Config, workers, cycles, warmup int) (Snapshot, uint64) {
	t.Helper()
	cfg.Workers = workers
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Run(cycles, warmup)
	return m.Snapshot(), sys.StateDigest()
}

func TestParallelEquivalence(t *testing.T) {
	const cycles, warmup = 3, 1
	for name, cfg := range equivalenceConfigs() {
		t.Run(name, func(t *testing.T) {
			wantSnap, wantDigest := runWithWorkers(t, cfg, 1, cycles, warmup)
			for _, workers := range []int{0, 2, 4, 8} {
				snap, digest := runWithWorkers(t, cfg, workers, cycles, warmup)
				if snap != wantSnap {
					t.Errorf("workers=%d: snapshot diverged from one worker\n got %+v\nwant %+v",
						workers, snap, wantSnap)
				}
				if digest != wantDigest {
					t.Errorf("workers=%d: state digest %x, one worker %x", workers, digest, wantDigest)
				}
			}
		})
	}
}

// TestParallelEquivalenceHistogram pins the quantile path specifically:
// per-worker scratch histograms merged in scheduler-dependent order must
// reproduce the single worker's exact bucket counts.
func TestParallelEquivalenceHistogram(t *testing.T) {
	cfg := quickConfig(ModeCloudFog)
	cfg.Strategies = AllStrategies()
	cfg.AlwaysOn = true

	build := func(workers int) *Metrics {
		cfg.Workers = workers
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(3, 1)
	}
	seq := build(1)
	par := build(6)
	if seq.ResponseLatencyHist == nil || par.ResponseLatencyHist == nil {
		t.Fatal("response latency histogram not collected")
	}
	if seq.ResponseLatencyHist.N() == 0 {
		t.Fatal("histogram empty")
	}
	if got, want := par.ResponseLatencyHist.N(), seq.ResponseLatencyHist.N(); got != want {
		t.Fatalf("histogram N: 6 workers %d, one worker %d", got, want)
	}
	if !reflect.DeepEqual(par.ResponseLatencyHist, seq.ResponseLatencyHist) {
		t.Fatalf("bucket counts differ:\n6 workers  %+v\none worker %+v", par.ResponseLatencyHist, seq.ResponseLatencyHist)
	}
	for _, p := range []float64{50, 95, 99} {
		if got, want := par.ResponseLatencyHist.Percentile(p), seq.ResponseLatencyHist.Percentile(p); got != want {
			t.Fatalf("P%v: 6 workers %v, one worker %v", p, got, want)
		}
	}
}

// TestWorkersConfigResolution documents the -parallel knob mapping: a
// positive count is taken literally, anything else means GOMAXPROCS.
func TestWorkersConfigResolution(t *testing.T) {
	cfg := quickConfig(ModeCloud)
	for workers, want := range map[int]int{-1: runtime.GOMAXPROCS(0), 0: runtime.GOMAXPROCS(0), 1: 1, 3: 3} {
		cfg.Workers = workers
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.workerCount(); got != want {
			t.Errorf("Workers=%d resolved to %d workers, want %d", workers, got, want)
		}
	}
}
