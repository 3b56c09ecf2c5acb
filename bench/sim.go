package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/rng"
	"cloudfog/internal/social"
)

// The simulator's measured work is one computation repeated: a freshly
// built system runs segmentCycles daily cycles (day 0 is the cold start in
// which every player picks a supernode; from day 1 on the picks are informed
// by the ratings of the day before), and the reported rate is that of the
// fastest repeat. On the 2-core reference VM the same CPU work costs 30–60 %
// more for 2–8 s at a time, a quarter of the time, and 20–35 % more for
// minutes at a time; whatever interferes from outside the process only ever
// slows a repeat down, so the fastest is the least disturbed observation of
// the same deterministic computation. Over three sweeps of ten runs the fastest
// repeat spread 11–14 % between runs, the median repeat 15–18 % and the mean
// — what one long run measures — 14–19 %.
const segmentCycles = 2

// simSegments maps the measured window to the number of repeats: 6 at the
// registered 24 s window (≈21 s of work on the reference box). The size is
// a pure function of -seconds, so a result is always "work per second at a
// stated size".
func simSegments(window time.Duration) int {
	n := int(window.Seconds() / 4)
	if n < 1 {
		n = 1
	}
	return n
}

func simConfig(spec *simSpec, seed uint64) core.Config {
	cfg := core.PeerSim()
	cfg.Supernodes = cfg.Supernodes * spec.Players / cfg.Players
	cfg.CDNServers = cfg.CDNServers * spec.Players / cfg.Players
	cfg.Players = spec.Players
	cfg.SupernodeCandidates = cfg.Players / 10
	cfg.Strategies = core.AllStrategies()
	cfg.AlwaysOn = true
	cfg.Seed = seed
	// Real time for the server-assignment latency only; it feeds a metric,
	// never the simulated state, so digests stay seed-pure.
	cfg.WallClock = time.Now
	return cfg
}

// goldenFS holds the committed digests, one file per simulator workload.
//
//go:embed golden/*.json
var goldenFS embed.FS

// golden is the committed digest of the default-seed run.
type golden struct {
	Seed    uint64 `json:"seed"`
	Players int    `json:"players"`
	Cycles  int    `json:"cycles"`
	Digest  string `json:"digest"`
}

// runSim runs the simulator workload: core.NewSystem is set-up, Run is the
// measured work. A non-empty goldenOut rewrites the golden file there
// instead of checking against the embedded one.
func runSim(w *workload, o runOpts, goldenOut string) *result {
	res := newResult()
	cfg := simConfig(w.Sim, o.Seed)
	segments := simSegments(o.Window)
	epoch := time.Now()
	var tr *tracer
	if o.Trace {
		tr = newTracer(epoch)
	}
	var builds []float64
	build := func(c core.Config) *core.System {
		t0 := time.Now()
		s, err := core.NewSystem(c)
		if err != nil {
			res.problem("NewSystem: %v", err)
			return nil
		}
		t1 := time.Now()
		builds = append(builds, t1.Sub(t0).Seconds())
		tr.root("core.build", t0, t1)
		return s
	}

	// The parallel engine must not show in the state: one cycle on the
	// default worker pool and one on a single worker leave the same digest.
	var pair [2]uint64
	for i := range pair {
		c := cfg
		if i == 1 {
			c.Workers = 1
		}
		s := build(c)
		if s == nil {
			return res
		}
		s.Run(1, -1)
		pair[i] = s.StateDigest()
	}
	if pair[0] != pair[1] {
		res.problem("state digest differs between one cycle on the default worker pool and on one worker, seed %d: %016x vs %016x", o.Seed, pair[0], pair[1])
	}

	var walls []float64
	var cpu time.Duration
	var m *core.Metrics
	var digest string
	for i := 0; i < segments; i++ {
		sys := build(cfg)
		if sys == nil {
			return res
		}
		runtime.GC() // the previous segment's system is garbage; start each from the same heap
		cpu0 := processCPU()
		t0 := time.Now()
		// No warm-up cycles (a 0 would select the engine's default of 21 and
		// leave nothing measured): the modelled metrics below need every cycle.
		m = sys.Run(segmentCycles, -1)
		t1 := time.Now()
		walls = append(walls, t1.Sub(t0).Seconds())
		cpu += processCPU() - cpu0
		tr.root("core.run", t0, t1)
		d := fmt.Sprintf("%016x", sys.StateDigest())
		if digest != "" && d != digest {
			res.problem("state digest differs between two runs of seed %d: %s vs %s", o.Seed, digest, d)
		}
		digest = d
	}
	res.Metrics["setup_s"] = medianOf(builds)
	res.Metrics["core.build_s"] = medianOf(builds)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	playerticks := float64(cfg.Players) * 24 * segmentCycles
	snap := m.Snapshot()
	fastest := walls[0]
	for _, w := range walls {
		fastest = min(fastest, w)
	}
	res.Metrics["sim_playerticks_per_s"] = playerticks / fastest
	res.Samples["sim_playerticks_per_s"] = segments
	// The player-visible metric names carry the simulator's modelled value
	// of the same quantity for its simulated players (README.md, "Metrics
	// on sim_fog_50k").
	res.Metrics["display_latency_p50_ms"] = snap.ResponseLatencyP50Ms
	res.Metrics["display_latency_p95_ms"] = snap.ResponseLatencyP95Ms
	res.Metrics["delivered_fps_ratio"] = snap.MeanContinuity
	if snap.MeanContinuity > 0 {
		res.Metrics["frame_gap_p95_ms"] = 1000 / nominalFPS / snap.MeanContinuity
	}
	if snap.MeanOnlinePlayers > 0 {
		res.Metrics["cloud_egress_kbit_per_player_s"] = snap.MeanCloudEgressMbps * 1000 / snap.MeanOnlinePlayers
	}
	res.Metrics["join_to_first_frame_p50_ms"] = snap.MeanPlayerJoinMs
	res.Metrics["join_to_first_frame_p95_ms"] = snap.MeanPlayerJoinMs + 1.645*m.PlayerJoinMs.StdDev()
	res.Samples["display_latency_p50_ms"] = m.ResponseLatencyMs.N()
	res.Samples["display_latency_p95_ms"] = m.ResponseLatencyMs.N()
	res.Samples["join_to_first_frame_p50_ms"] = m.PlayerJoinMs.N()
	res.Samples["join_to_first_frame_p95_ms"] = m.PlayerJoinMs.N()

	var wall float64
	for _, w := range walls {
		wall += w
	}
	res.Report = append(res.Report, fmt.Sprintf("Run(%d, -1) wall s, each repeat: %.3f", segmentCycles, walls))
	res.Metrics["core.run_s"] = wall
	res.Metrics["core.playerticks"] = playerticks * float64(segments)
	res.Metrics["core.heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	res.Metrics["core.workers"] = float64(runtime.GOMAXPROCS(0))
	res.Metrics["assignment.assign_s"] = m.ServerAssignmentMs.Sum() / 1000
	res.Metrics["process.cpu_cores_used"] = cpu.Seconds() / wall
	res.Metrics["process.gc_cycles_per_s"] = float64(mem.NumGC) / time.Since(epoch).Seconds()
	res.Metrics["process.gc_pause_total_ms"] = float64(mem.PauseTotalNs) / 1e6
	res.Metrics["process.alloc_mb_per_s"] = float64(mem.TotalAlloc) / (1 << 20) / time.Since(epoch).Seconds()
	res.Metrics["process.peak_rss_mb"] = peakRSSMB()
	res.Metrics["process.goroutines"] = float64(runtime.NumGoroutine())

	res.Attempted = segments
	for name, v := range res.Metrics {
		if v != v { // NaN: an empty accumulator
			res.problem("%s is NaN", name)
		}
	}

	gp := "golden/" + w.Name + ".json"
	want := golden{Seed: o.Seed, Players: cfg.Players, Cycles: segmentCycles, Digest: digest}
	if goldenOut != "" {
		buf, _ := json.MarshalIndent(want, "", "  ") // a struct of scalars cannot fail to marshal
		if err := os.WriteFile(goldenOut, append(buf, '\n'), 0o644); err != nil {
			res.problem("update golden: %v", err)
		}
	} else if buf, err := goldenFS.ReadFile(gp); err != nil {
		res.problem("golden digest: %v", err)
	} else {
		var g golden
		if err := json.Unmarshal(buf, &g); err != nil {
			res.problem("golden digest %s: %v", gp, err)
		} else if g.Seed == want.Seed && g.Players == want.Players && g.Cycles == want.Cycles && g.Digest != want.Digest {
			res.problem("state digest %s differs from golden %s (seed %d, %d players, %d cycles)", digest, g.Digest, g.Seed, g.Players, g.Cycles)
		}
	}
	if !res.Correct {
		res.Failed = 1
	}

	res.Info["window_s"] = wall
	res.Info["warmup_s"] = 0.0
	res.Info["setups"] = len(builds)
	res.Info["sim_players"] = cfg.Players
	res.Info["sim_supernodes"] = cfg.Supernodes
	res.Info["sim_segments"] = segments
	res.Info["sim_cycles_per_segment"] = segmentCycles
	res.Info["state_digest"] = digest
	res.Info["video_sessions"] = 0
	res.Info["connections"] = 0

	if o.Trace {
		t0 := time.Now()
		social.Generate(social.GenerateConfig{N: cfg.Players, Skew: 1.5}, rng.New(o.Seed).SplitNamed("social"))
		res.Metrics["social.generate_s"] = time.Since(t0).Seconds()
		tr.report(res, o.TraceOut)
	}
	return res
}
