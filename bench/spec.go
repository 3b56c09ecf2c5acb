package main

import (
	"time"

	"cloudfog/internal/game"
)

// metricDef names one reported metric. The tables below are the single
// source the runner emits from; BENCHMARK.json carries the same names,
// units, directions and bounds for the driver, and bench_test.go asserts
// the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics carry none.
	Bound float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (the driver's contract); README.md gives the exact
// definition each name takes on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"display_latency_p50_ms", "ms", "lower", 0.15},
	{"display_latency_p95_ms", "ms", "lower", 0.15},
	{"frame_gap_p95_ms", "ms", "lower", 0.10},
	{"delivered_fps_ratio", "ratio", "higher", 0.02},
	{"cloud_egress_kbit_per_player_s", "kbit/s", "lower", 0.15},
	{"join_to_first_frame_p50_ms", "ms", "lower", 0.10},
	{"join_to_first_frame_p95_ms", "ms", "lower", 0.15},
	{"sim_playerticks_per_s", "1/s", "higher", 0.25},
}

// perLayer lists the single-layer metrics of the traced run, prefixed by
// the module they describe. A metric that does not exist on a workload
// (core.* on a live cluster, fognet.* in the simulator) reads 0 there.
var perLayer = []metricDef{
	{Name: "fognet.cloud.input_to_update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fognet.cloud.input_to_update_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "fognet.cloud.ticks", Unit: "count", Better: "higher"},
	{Name: "fognet.cloud.tick_rate_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fognet.cloud.update_kbit_s", Unit: "kbit/s", Better: "lower"},
	{Name: "fognet.cloud.send_queue_drops", Unit: "count", Better: "lower"},
	{Name: "fognet.cloud.keyframe_cells", Unit: "count", Better: "lower"},
	{Name: "fognet.cloud.interest_updates", Unit: "count", Better: "lower"},
	{Name: "fognet.fog.update_to_frame_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fognet.fog.update_to_frame_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "fognet.fog.frame_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fognet.fog.frames", Unit: "count", Better: "higher"},
	{Name: "fognet.fog.video_kbit_s", Unit: "kbit/s", Better: "lower"},
	{Name: "fognet.fog.applied_deltas", Unit: "count", Better: "higher"},
	{Name: "fognet.fog.stale_deltas", Unit: "count", Better: "lower"},
	{Name: "fognet.fog.cell_batches", Unit: "count", Better: "lower"},
	{Name: "fognet.fog.dgram_frames", Unit: "count", Better: "higher"},
	{Name: "fognet.fog.join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fognet.player.frames", Unit: "count", Better: "higher"},
	{Name: "fognet.player.decode_errors", Unit: "count", Better: "lower"},
	{Name: "fognet.player.stall_ms", Unit: "ms", Better: "lower"},
	{Name: "fognet.player.migrations", Unit: "count", Better: "lower"},
	{Name: "fognet.player.fallback_transitions", Unit: "count", Better: "lower"},
	{Name: "fognet.player.dgram_lost", Unit: "count", Better: "lower"},
	{Name: "fognet.player.dgram_stale", Unit: "count", Better: "lower"},
	{Name: "fognet.player.frame_decode_p50_us", Unit: "us", Better: "lower"},
	{Name: "virtualworld.step_us", Unit: "us", Better: "lower"},
	{Name: "virtualworld.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "virtualworld.replica_apply_us", Unit: "us", Better: "lower"},
	{Name: "virtualworld.entities", Unit: "count", Better: "higher"},
	{Name: "render.render_us", Unit: "us", Better: "lower"},
	{Name: "videocodec.encode_us", Unit: "us", Better: "lower"},
	{Name: "videocodec.decode_us", Unit: "us", Better: "lower"},
	{Name: "videocodec.frame_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "protocol.update_encode_us", Unit: "us", Better: "lower"},
	{Name: "protocol.update_decode_us", Unit: "us", Better: "lower"},
	{Name: "protocol.frame_append_us", Unit: "us", Better: "lower"},
	{Name: "protocol.frame_read_us", Unit: "us", Better: "lower"},
	{Name: "protocol.handshake_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "transport.dgram_header_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.track_ns", Unit: "ns", Better: "lower"},
	{Name: "selection.rank_us", Unit: "us", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.playerticks", Unit: "count", Better: "higher"},
	{Name: "core.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "core.workers", Unit: "count", Better: "higher"},
	{Name: "social.generate_s", Unit: "s", Better: "lower"},
	{Name: "assignment.assign_s", Unit: "s", Better: "lower"},
	{Name: "process.cpu_cores_used", Unit: "cores", Better: "lower"},
	{Name: "process.cpu_ms_per_frame", Unit: "ms", Better: "lower"},
	{Name: "process.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.alloc_mb_per_s", Unit: "MB/s", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.goroutines", Unit: "count", Better: "lower"},
	{Name: "loadgen.send_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// durRange is a half-open [Lo, Hi) range a seeded delay is drawn from.
// Lo == Hi means the fixed delay Lo.
type durRange struct{ Lo, Hi time.Duration }

// liveSpec sizes one live-cluster workload. Every live workload has the
// same roles — resident fognet.PlayerClients that are pure load, benchmark
// probe sessions that time input→display, and benchmark joiners that time
// join→first frame — and differs in world size, quality level, fog mode
// and how hard the joiners churn.
type liveSpec struct {
	World     float64 // square world side, world units
	NPCs      int
	Level     game.QualityLevel
	Residents int
	Probes    int
	Joiners   int
	// JoinDwell is how long a joiner keeps streaming after its first
	// frame; JoinIdle is how long it stays away after leaving. The churn
	// workload dwells and rejoins at once (tear-down under load, ≈7
	// joins/s); the streaming workloads leave at once and idle, so their
	// single joiner is a low-duty canary that is in session a fifth of the
	// time.
	JoinDwell, JoinIdle durRange
	// AoI runs the fog with interest management and the UDP video path
	// (residents then request datagram video; probes stay on TCP).
	AoI bool
	// SerialFogs is how many extra FogNodes are started and closed one
	// after another once the window is over (fognet.fog.join_p50_ms).
	SerialFogs int
}

// simSpec sizes the simulator workload: core.PeerSim() with the player
// population set to Players and the fog scaled in proportion.
type simSpec struct {
	Players int
}

// workload is one named set of inputs. Exactly one of Live and Sim is set.
type workload struct {
	Name string
	Why  string
	Live *liveSpec
	Sim  *simSpec
}

var (
	canaryIdle = durRange{100 * time.Millisecond, 200 * time.Millisecond}
	churnDwell = durRange{150 * time.Millisecond, 350 * time.Millisecond}
)

var workloads = []workload{
	{
		Name: "stream_hd",
		Why:  "16 NPCs, 5 sessions at 1280x720 on one legacy TCP fog: videocodec encode/decode is most of the CPU, virtualworld almost none",
		Live: &liveSpec{World: 1024, NPCs: 16, Level: 5, Residents: 3, Probes: 2, Joiners: 1, JoinIdle: canaryIdle},
	},
	{
		Name: "big_world",
		Why:  "20000 NPCs, 4 sessions at 288x216 on one AoI+UDP fog: per-frame Replica.Snapshot and per-tick World.Step are most of the CPU, videocodec almost none",
		Live: &liveSpec{World: 4096, NPCs: 20000, Level: 1, Residents: 2, Probes: 2, Joiners: 1, JoinIdle: canaryIdle, AoI: true},
	},
	{
		Name: "join_churn",
		Why:  "5000 NPCs, closed loop of 2 joiners at ~7 joins/s beside 3 resident sessions: the same layers doing session set-up and tear-down instead of steady state",
		Live: &liveSpec{World: 2048, NPCs: 5000, Level: 3, Residents: 2, Probes: 1, Joiners: 2, JoinDwell: churnDwell, SerialFogs: 20},
	},
	{
		Name: "sim_fog_50k",
		Why:  "the simulator with the fog in the run: PeerSim x5 (50000 players, 3000 supernodes), all strategies, always on, 2-day runs repeated; no live layer runs",
		Sim:  &simSpec{Players: 50000},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
