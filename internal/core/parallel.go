package core

import (
	"runtime"
	"sync"
	"sync/atomic"

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
//     (decisionRand, netmodel.CongestionFactor), which depend on
//     (seed, player, cycle, subcycle) alone — never on execution order.
//  2. apply: a single goroutine walks players in ascending index — the
//     canonical schedule — committing each result's shared-state effects
//     (float metric Adds, co-play records, egress sums) via applyEval.
//
// Because step 1 is order-independent and step 2 replays the exact
// floating-point operation sequence of the historical sequential loop, the
// seeded output is bit-identical for ANY worker count, including the
// -parallel=0 legacy ordering (which interleaves compute and apply per
// player; the interleaving is immaterial precisely because compute never
// reads the state apply mutates). The only phase output assembled outside
// canonical order is the response-latency histogram: workers fill private
// scratch histograms and the integer bucket counts merge exactly in any
// order (stats.Histogram.Merge).

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

// workerCount resolves cfg.Workers: negative forces the legacy sequential
// ordering, zero sizes the pool by GOMAXPROCS, positive is taken literally.
func (s *System) workerCount() int {
	switch {
	case s.cfg.Workers < 0:
		return 0 // legacy sequential path
	case s.cfg.Workers == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return s.cfg.Workers
	}
}

// evalPhase runs the streaming evaluation for one subcycle and returns the
// online-player count and the cloud egress sum. rSub is the subcycle's
// control stream; the parallel path derives one child stream per shard from
// it, in shard order, so any eval-phase consumer of shard randomness is
// pinned to the shard, not the worker.
func (s *System) evalPhase(clock sim.Clock, measured bool, rSub *rng.Rand) (online int, cloudEgressKbps float64) {
	w := s.workerCount()
	if w == 0 {
		return s.evalSequential(clock, measured, rSub)
	}

	// Per-shard streams, derived in shard index order before any worker
	// starts: the k-th shard's stream is a pure function of (seed, k).
	if cap(s.shardRands) < len(s.shards) {
		s.shardRands = make([]*rng.Rand, len(s.shards))
	}
	shardRands := s.shardRands[:len(s.shards)]
	for i := range shardRands {
		shardRands[i] = rSub.Split()
	}
	if len(s.workerScratch) < w {
		s.workerScratch = make([]evalScratch, w)
	}

	// Compute: workers claim shards via an atomic cursor. Which worker
	// evaluates which shard is scheduling-dependent and deliberately
	// irrelevant: results land in per-player slots, and scratch histograms
	// merge order-insensitively.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(sc *evalScratch) {
			defer wg.Done()
			for {
				c := int(cursor.Add(1) - 1)
				if c >= len(s.shards) {
					return
				}
				r := shardRands[c]
				for _, idx := range s.shards[c] {
					if !s.ps.online[idx] {
						continue
					}
					s.computeEval(int(idx), clock, measured, r, sc, &s.evalResults[idx])
				}
			}
		}(&s.workerScratch[k])
	}
	wg.Wait()

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

// evalSequential is the legacy ordering (-parallel=0): one pass over the
// players in index order, applying each result as it is computed. Kept for
// bisection — its output is asserted bit-identical to the parallel path by
// the equivalence tests.
func (s *System) evalSequential(clock sim.Clock, measured bool, rSub *rng.Rand) (online int, cloudEgressKbps float64) {
	sc := &s.seqScratch
	for i := range s.players {
		if !s.ps.online[i] {
			continue
		}
		online++
		res := &s.evalResults[i]
		s.computeEval(i, clock, measured, rSub, sc, res)
		s.applyEval(i, clock, measured, res)
		if res.cloud {
			cloudEgressKbps += res.bitrate
		}
	}
	if measured {
		s.mergeRespHist(sc)
	}
	return online, cloudEgressKbps
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
