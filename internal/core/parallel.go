package core

import (
	"runtime"
	"sync"

	"cloudfog/internal/game"
	"cloudfog/internal/rng"
	"cloudfog/internal/sim"
	"cloudfog/internal/stats"
)

// The parallel tick pipeline.
//
// The streaming-evaluation phase — the simulator's hot loop — runs in two
// steps with a strict determinism contract:
//
//  1. compute: every online player's evaluation (computeEval) runs
//     independently, possibly concurrently, writing into that player's
//     private evalResult slot. Compute touches only per-player state and
//     draws randomness exclusively from hash-keyed decision streams
//     (decisionKey, netmodel.CongestionFactor), which depend on
//     (seed, player, cycle, subcycle) alone — never on execution order.
//  2. apply: a single goroutine walks players in ascending index — the
//     canonical schedule — committing each result's shared-state effects
//     (float metric Adds, co-play records, egress sums) via applyEval.
//
// Because step 1 is order-independent and step 2 commits in one fixed
// floating-point operation sequence, the seeded output is bit-identical for
// ANY worker count (Workers = 1 runs the same two steps on the caller's
// goroutine and is the reference of the equivalence tests). The only phase
// output assembled outside canonical order is the response-latency
// histogram: workers fill private scratch histograms and the integer bucket
// counts merge exactly in any order (stats.Histogram.Merge).

// shardSize is the target player count per work unit. Shards partition each
// region's players; workers claim whole shards via an atomic cursor, so the
// unit must be large enough to amortize the claim and small enough to
// balance load across heterogeneous regions.
const shardSize = 2048

// evalResult is one player's per-subcycle evaluation outcome: everything
// applyEval needs to commit shared-state effects in canonical order.
type evalResult struct {
	bitrate       float64
	respMs        float64
	commMs        float64
	level         game.QualityLevel
	fogServed     bool
	cloud         bool
	coplayPartner int32
	coplayRecord  bool
}

// evalScratch is worker-local scratch reused across players and subcycles.
// The workers' scratch sits side by side in System.workerScratch, and each
// worker rewrites its friends header for every player, so the trailing pad
// keeps neighbours off one cache line: without it the two workers of a
// 50k-player run lost about a sixth of the run to the line bouncing
// between their cores.
type evalScratch struct {
	// friends buffers the online-friends filter (onlineFriends).
	friends []int32
	// respHist collects response latencies for quantile estimation; merged
	// into Metrics.ResponseLatencyHist after each eval phase.
	respHist *stats.Histogram
	// keyed is the reusable generator for hash-keyed per-player draws
	// (partner choice, congestion factor): reseeded before every use, so it
	// carries no state between players and stays worker-local.
	keyed *rng.Rand

	_ [64]byte
}

// ensureHist lazily allocates the worker-local latency histogram: one
// allocation per worker per run, zero in steady state.
func (sc *evalScratch) ensureHist() {
	if sc.respHist == nil {
		sc.respHist = newResponseHist()
	}
}

// ensureKeyed lazily allocates the reusable keyed-draw generator: one
// allocation per worker per run, zero in steady state.
func (sc *evalScratch) ensureKeyed() *rng.Rand {
	if sc.keyed == nil {
		sc.keyed = rng.New(0)
	}
	return sc.keyed
}

// buildShards partitions player indices by region (nearest datacenter) into
// work units for the eval phase. Regions are static after construction, so
// this runs once. Within a shard, and across shards of one region, indices
// stay ascending.
func (s *System) buildShards() {
	byDC := make([][]int32, s.cfg.Datacenters)
	for i := range s.players {
		dc := s.ps.dc[i]
		byDC[dc] = append(byDC[dc], int32(i))
	}
	s.shards = s.shards[:0]
	for _, region := range byDC {
		for start := 0; start < len(region); start += shardSize {
			end := start + shardSize
			if end > len(region) {
				end = len(region)
			}
			s.shards = append(s.shards, region[start:end])
		}
	}
	s.evalResults = make([]evalResult, len(s.players))
}

// workerCount resolves cfg.Workers: positive is taken literally, anything
// else sizes the pool by GOMAXPROCS.
func (s *System) workerCount() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// evalPhase runs the streaming evaluation for one subcycle and returns the
// online-player count and the cloud egress sum.
func (s *System) evalPhase(clock sim.Clock, measured bool) (online int, cloudEgressKbps float64) {
	w := s.workerCount()
	if len(s.workerScratch) < w {
		s.workerScratch = make([]evalScratch, w)
	}

	// Compute: workers claim shards via an atomic cursor. Which worker
	// evaluates which shard is scheduling-dependent and deliberately
	// irrelevant: results land in per-player slots, and scratch histograms
	// merge order-insensitively. A single worker is the caller itself: no
	// goroutine, nothing allocated.
	s.shardCursor.Store(0)
	if w == 1 {
		s.evalShards(clock, measured, &s.workerScratch[0])
	} else {
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func(sc *evalScratch) {
				defer wg.Done()
				s.evalShards(clock, measured, sc)
			}(&s.workerScratch[k])
		}
		wg.Wait()
	}

	// Apply, in canonical (ascending player index) order.
	for i := range s.players {
		if !s.ps.online[i] {
			continue
		}
		online++
		res := &s.evalResults[i]
		s.applyEval(i, clock, measured, res)
		if res.cloud {
			cloudEgressKbps += res.bitrate
		}
	}
	if measured {
		for k := 0; k < w; k++ {
			s.mergeRespHist(&s.workerScratch[k])
		}
	}
	return online, cloudEgressKbps
}

// evalShards is one worker: it claims shards off the cursor until none are
// left and evaluates their online players with its own scratch.
func (s *System) evalShards(clock sim.Clock, measured bool, sc *evalScratch) {
	for {
		c := int(s.shardCursor.Add(1) - 1)
		if c >= len(s.shards) {
			return
		}
		for _, idx := range s.shards[c] {
			if !s.ps.online[idx] {
				continue
			}
			s.computeEval(int(idx), clock, measured, sc, &s.evalResults[idx])
		}
	}
}

// mergeRespHist folds a scratch histogram into the run metrics and resets
// it for the next phase.
func (s *System) mergeRespHist(sc *evalScratch) {
	if sc.respHist == nil || sc.respHist.N() == 0 {
		return
	}
	s.metrics.ensureHist()
	s.metrics.ResponseLatencyHist.Merge(sc.respHist)
	sc.respHist.Reset()
}
