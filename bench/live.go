package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/fognet"
	"cloudfog/internal/game"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// Player ID ranges keep the three kinds of session apart in the world.
const (
	residentBaseID = 1
	probeBaseID    = 101
	joinerBaseID   = 1000
)

// residentScriptSeed seeds every resident PlayerClient's built-in walk
// script, whatever -seed is. The script alternates a walk to a random
// waypoint with a random pause, only about seven times in a window, and
// that move/idle ratio alone swung cloud egress by ±7 % and CPU per frame
// by ±5 % between seeds. The residents are load, not the thing measured,
// so their script is part of the workload's definition; -seed still draws
// the world layout, the probes' and joiners' spawn points, the probes'
// action schedule and the joiners' dwell and idle times.
const residentScriptSeed = 1

// lateLimit is the generator lateness (p99) that invalidates a run. Every
// latency is timed from the instant its action was due, so lateness is
// inside it; at 15 ms the slowest 1 % of sends alone could carry
// display_latency_p95_ms (≈ 77 ms, bound 15 %) past its bound, and the
// generator, not the system, would be what the run measured. lateTarget is
// what the issue asked for; this 2-core VM does not reach it (90 runs of
// 24 s: p50 0.48–0.77 ms and p90 0.97–2.6 ms, from the runtime's 1 ms
// idle-poll granularity; p99 1.4–9.3 ms in 87 of them, from a woken sender
// waiting for one of two Ps behind a 4 ms encode or snapshot, and 16, 20 and
// 77 ms in runs the whole VM stalled in), so above it the run is reported
// with a warning. A p99 with fewer than lateMinBeyond samples above it is
// the maximum of a short run: one hiccup, and it is not judged.
//
// An invalid run is not a failed one: the program's outputs were correct, the
// machine disturbed the measurement. It is reported as measured and marked,
// the exit code stays 0, and -compare refuses a file that holds one. The
// driver takes medians over 22 runs of a workload, which one marked run does
// not move; failing it would let the machine's stalls (one run in 30 here)
// reject a change.
const (
	lateLimit     = 15.0 // ms
	lateTarget    = 2.0  // ms
	lateMinBeyond = 2
)

// frameInterval is the frame period the fog streams at: the default 1/30 s
// stretched by 0.2 % (29.94 fps). At exactly 1/30 s the frame clocks are
// commensurate with the cloud's 50 ms tick clock (3 frames = 2 ticks), so
// every run froze one random phase between them; the wait from a tick's
// update to the next frame then averaged anything from 8 to 25 ms for the
// whole run, and display_latency_p50_ms moved ±4 ms (a 9 % spread) between
// runs on that alone. With the stretch the frame clocks slip 69 µs per
// frame against the ticks and pass through the whole 16.7 ms phase cycle
// every 8 s — three times in the registered 24 s window — so each run
// measures the phase average, which is also what makes a cloud-side gain
// show 1:1 in display latency instead of vanishing into the frame wait.
const frameInterval = fognet.DefaultFrameInterval + 69444*time.Nanosecond

// nominalFPS is the frame rate every session is streamed at.
var nominalFPS = float64(time.Second) / float64(frameInterval)

// runOpts are the knobs of one run that do not belong to the workload.
type runOpts struct {
	Seed     uint64
	Window   time.Duration
	Warmup   time.Duration
	Setups   int // how many times the cluster is set up; setup_s is the median
	Trace    bool
	TraceOut string
}

// result is what one run of one workload produced.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	// Metrics holds every metric the run computed, end-to-end and
	// per-layer alike; the caller emits the set its mode asks for.
	Metrics map[string]float64
	// Samples is the number of samples behind each percentile metric.
	Samples map[string]int
	// Problems lists the correctness checks that failed.
	Problems []string
	// Invalid says why the measurement, not the program, is unsound (the
	// load generator ran late); empty for a sound run.
	Invalid string
	// Info is free-form provenance of the run (session and connection
	// counts, window lengths).
	Info map[string]any
	// Report is the human-readable part: span self times and the
	// accounted CPU share of the traced run.
	Report []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}, Info: map[string]any{}}
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// genWorld builds the canonical checkpoint the cloud is restored from: an
// empty session table and NPCs placed uniformly at random. (CloudConfig.NPCs
// cannot be used: it piles everything past the 16th NPC onto the top edge.)
func genWorld(r *rng.Rand, spec *liveSpec, seed uint64) *checkpoint.State {
	st := &checkpoint.State{
		Epoch:  1,
		World:  virtualworld.Snapshot{Width: spec.World, Height: spec.World, Entities: make([]virtualworld.Entity, spec.NPCs)},
		NextID: virtualworld.EntityID(spec.NPCs + 1),
		Book:   reputation.BookState{Lambda: reputation.DefaultLambda},
		RNG:    rng.State{Seed: seed},
	}
	for i := range st.World.Entities {
		st.World.Entities[i] = virtualworld.Entity{
			ID: virtualworld.EntityID(i + 1), Kind: virtualworld.KindNPC, Owner: -1,
			X: r.Uniform(0, spec.World), Y: r.Uniform(0, spec.World),
			HP: virtualworld.MaxHP, Version: 1,
		}
	}
	st.Canonicalize()
	return st
}

// cluster is one in-process cloud + fog + sessions, talking over loopback.
type cluster struct {
	cloud     *fognet.CloudServer
	fog       *fognet.FogNode
	residents []*fognet.PlayerClient
	probes    []*probe
	sink      *sink
	fogJoin   time.Duration // NewFogNode call time
	// probeX, probeY is where the first probe's avatar stands.
	probeX, probeY float64
}

// startCluster calls the constructors and returns once every session has
// decoded its first frame; the elapsed time is one setup_s sample.
func startCluster(spec *liveSpec, in *rng.Rand, seed uint64, tr *tracer) (*cluster, time.Duration, error) {
	state := genWorld(in.SplitNamed("world"), spec, seed)
	spawn := in.SplitNamed("spawn")
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()

	start := time.Now()
	var err error
	c.cloud, err = fognet.NewCloudServer(fognet.CloudConfig{Restore: state, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	fogStart := time.Now()
	c.fog, err = fognet.NewFogNode(fognet.FogConfig{
		Name: "fog-0", CloudAddr: c.cloud.Addr(), Capacity: 16, FrameInterval: frameInterval,
		AoI: spec.AoI, Datagram: spec.AoI, Seed: seed,
	})
	if err != nil {
		return nil, 0, err
	}
	c.fogJoin = time.Since(fogStart)
	// Sessions attach evenly spread over one frame period. A session's
	// frame clock starts when it attaches, so this fixes the phase between
	// the sessions' encodes; attached back to back they would all encode
	// in one burst, and where in that burst a probe happened to land would
	// shift its whole latency distribution by several ms from run to run.
	slot := frameInterval / time.Duration(spec.Residents+spec.Probes)
	firstAttach := time.Now()
	nextSlot := func(k int) { time.Sleep(time.Until(firstAttach.Add(time.Duration(k) * slot))) }
	for i := 0; i < spec.Residents; i++ {
		nextSlot(i)
		pc, err := fognet.NewPlayerClient(fognet.PlayerConfig{
			PlayerID: int32(residentBaseID + i), CloudAddr: c.cloud.Addr(),
			Game: game.Catalog()[spec.Level-1], Seed: residentScriptSeed,
			Datagram: spec.AoI, QoEInterval: -1,
		})
		if err != nil {
			return nil, 0, err
		}
		c.residents = append(c.residents, pc)
	}
	margin := spec.World / 10
	for i := 0; i < spec.Probes; i++ {
		id := int32(probeBaseID + i)
		nextSlot(spec.Residents + i)
		x, y := spawn.Uniform(margin, spec.World-margin), spawn.Uniform(margin, spec.World-margin)
		if i == 0 {
			c.probeX, c.probeY = x, y
		}
		s, _, err := openSession(c.cloud.Addr(), id, spec.Level, x, y, spawn)
		if err != nil {
			return nil, 0, err
		}
		c.probes = append(c.probes, newProbe(s, in.SplitNamed(fmt.Sprintf("gaps-%d", i)), tr))
	}
	// Streaming: every session has decoded a frame.
	deadline := start.Add(10 * time.Second)
	for {
		ready := true
		for _, pc := range c.residents {
			if pc.Stats().Frames == 0 {
				ready = false
			}
		}
		for _, p := range c.probes {
			p.mu.Lock()
			if len(p.frames) == 0 {
				ready = false
			}
			p.mu.Unlock()
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("cluster not streaming to every session after 10 s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	ok = true
	return c, time.Since(start), nil
}

func (c *cluster) close() {
	for _, p := range c.probes {
		p.close()
	}
	for _, pc := range c.residents {
		pc.Close()
	}
	if c.sink != nil {
		c.sink.close()
	}
	if c.fog != nil {
		c.fog.Close()
	}
	if c.cloud != nil {
		c.cloud.Close()
	}
}

// counters is one reading of everything the benchmark reads twice, at the
// window's start and end.
type counters struct {
	at        time.Time
	cpu       time.Duration // process user+system
	mem       runtime.MemStats
	cloud     fognet.CloudStats
	fog       fognet.FogStats
	residents []fognet.PlayerStats
	sinkBits  int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (c *cluster) read() counters {
	var k counters
	k.at = time.Now()
	k.cpu = processCPU()
	runtime.ReadMemStats(&k.mem)
	k.cloud = c.cloud.Stats()
	k.fog = c.fog.Stats()
	for _, pc := range c.residents {
		k.residents = append(k.residents, pc.Stats())
	}
	k.sinkBits = c.sink.bits()
	return k
}

func inWindow(t time.Time, a, b counters) bool { return !t.Before(a.at) && t.Before(b.at) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runLive runs one live workload end to end.
func runLive(w *workload, o runOpts) *result {
	spec := w.Live
	res := newResult()
	in := rng.New(o.Seed).SplitNamed(w.Name)
	epoch := time.Now()
	var tr *tracer
	if o.Trace {
		tr = newTracer(epoch)
	}

	// Set-up, several times over; the last cluster is the one measured.
	var setups, fogJoins []float64
	var c *cluster
	for i := 0; i < o.Setups; i++ {
		if c != nil {
			c.close()
		}
		var d time.Duration
		var err error
		c, d, err = startCluster(spec, in, o.Seed, tr)
		if err != nil {
			res.problem("set-up: %v", err)
			return res
		}
		setups = append(setups, d.Seconds())
		fogJoins = append(fogJoins, ms(c.fogJoin))
	}
	defer c.close()
	res.Metrics["setup_s"] = medianOf(setups)

	matchers := map[int]*matcher{}
	for _, p := range c.probes {
		matchers[int(p.s.id)] = &p.m
	}
	var err error
	if c.sink, err = startSink(c.cloud.Addr(), matchers); err != nil {
		res.problem("sink: %v", err)
		return res
	}

	// Load on.
	var nextID atomic.Int32
	nextID.Store(joinerBaseID)
	joiners := make([]*joiner, spec.Joiners)
	for i := range joiners {
		joiners[i] = &joiner{cloudAddr: c.cloud.Addr(), level: spec.Level, nearX: c.probeX, nearY: c.probeY,
			dwell: spec.JoinDwell, idle: spec.JoinIdle, r: in.SplitNamed(fmt.Sprintf("joiner-%d", i)),
			tr: tr, nextID: &nextID}
		joiners[i].start()
	}
	for _, p := range c.probes {
		p.startSending()
	}
	time.Sleep(o.Warmup)
	runtime.GC() // start every window from the same heap state
	begin := c.read()
	time.Sleep(o.Window)
	end := c.read()
	goroutines := runtime.NumGoroutine()

	// Inputs off; let what is in flight land.
	for _, p := range c.probes {
		p.stopInputs()
	}
	for _, j := range joiners {
		j.halt()
	}
	drainBy := time.Now().Add(actionTimeout)
	for time.Now().Before(drainBy) {
		left := 0
		for _, p := range c.probes {
			left += p.m.outstanding()
		}
		if left == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(3 * fognet.DefaultTickInterval) // two full ticks pass whatever the phase
	quiet := c.read()

	window := end.at.Sub(begin.at).Seconds()
	sessions := spec.Residents + spec.Probes

	// --- probes: input→display, frame gaps, decode ---------------------
	var display, toUpdate, toFrame, gaps, decodeUs, frameBytes, late dist
	var tracedLat, untracedLat dist
	actions, actionsFailed, probeFrames := 0, 0, 0
	for _, p := range c.probes {
		samples, expired := p.m.finish()
		actionsFailed += expired
		actions += len(samples) + expired
		for _, s := range samples {
			if s.Frame.Sub(s.Due) > actionTimeout {
				actionsFailed++
			}
			if !inWindow(s.Due, begin, end) {
				continue
			}
			d := ms(s.Frame.Sub(s.Due))
			display.add(d)
			toUpdate.add(ms(s.Update.Sub(s.Due)))
			toFrame.add(ms(s.Frame.Sub(s.Update) - s.Decode))
			if s.Traced {
				tracedLat.add(d)
			} else {
				untracedLat.add(d)
			}
		}
		p.mu.Lock()
		var prev time.Time
		for _, f := range p.frames {
			if inWindow(f.Decoded, begin, end) {
				probeFrames++
				decodeUs.add(float64(f.Decoded.Sub(f.Read)) / float64(time.Microsecond))
				frameBytes.add(float64(f.Bytes))
				if !prev.IsZero() {
					gaps.add(ms(f.Decoded.Sub(prev)))
				}
			}
			prev = f.Decoded
		}
		for _, l := range p.late {
			if inWindow(l.due, begin, end) {
				late.add(ms(l.by))
			}
		}
		if p.decodeErrs > 0 {
			res.problem("probe %d: %d frames failed to decode", p.s.id, p.decodeErrs)
		}
		if p.tickRegress > 0 {
			res.problem("probe %d: frame ticks went backwards %d times", p.s.id, p.tickRegress)
		}
		if p.streamErr != nil {
			res.problem("probe %d: stream dropped: %v", p.s.id, p.streamErr)
			actionsFailed++
		}
		res.Failed += p.decodeErrs
		p.mu.Unlock()
	}
	res.Metrics["display_latency_p50_ms"] = display.percentile(50)
	res.Metrics["display_latency_p95_ms"] = display.percentile(95)
	res.Samples["display_latency_p50_ms"] = display.n()
	res.Samples["display_latency_p95_ms"] = display.n()
	res.Metrics["frame_gap_p95_ms"] = gaps.percentile(95)
	res.Samples["frame_gap_p95_ms"] = gaps.n()
	res.Metrics["fognet.cloud.input_to_update_p50_ms"] = toUpdate.percentile(50)
	res.Metrics["fognet.cloud.input_to_update_p95_ms"] = toUpdate.percentile(95)
	res.Metrics["fognet.fog.update_to_frame_p50_ms"] = toFrame.percentile(50)
	res.Metrics["fognet.fog.update_to_frame_p95_ms"] = toFrame.percentile(95)
	res.Metrics["fognet.player.frame_decode_p50_us"] = decodeUs.percentile(50)
	res.Metrics["videocodec.frame_bytes_p50"] = frameBytes.percentile(50)
	res.Metrics["loadgen.send_late_p99_ms"] = late.percentile(99)
	res.Metrics["loadgen.samples"] = float64(display.n())
	res.Report = append(res.Report, fmt.Sprintf("loadgen lateness ms: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f  (n=%d)",
		late.percentile(50), late.percentile(90), late.percentile(99), late.percentile(100), late.n()))
	res.Info["send_late_p99_ms"] = late.percentile(99)
	if p99 := late.percentile(99); p99 >= lateLimit && late.beyond(99) >= lateMinBeyond {
		res.Invalid = fmt.Sprintf("load generator ran late: send_late_p99 = %.2f ms (limit %.0f); latencies are timed from the due instant, so they include it", p99, lateLimit)
	} else if p99 >= lateTarget {
		res.Report = append(res.Report, fmt.Sprintf("WARNING: send_late_p99 = %.2f ms is above the %.0f ms target; latencies are timed from the due instant, so they include it", p99, lateTarget))
	}
	if tr != nil && untracedLat.n() > 0 && untracedLat.percentile(50) > 0 {
		res.Metrics["trace.overhead_pct"] = (tracedLat.percentile(50) - untracedLat.percentile(50)) / untracedLat.percentile(50) * 100
	}

	// --- joiners --------------------------------------------------------
	var joinMs dist
	joinAttempts, joinFailed, joinerFrames := 0, 0, 0
	for i, j := range joiners {
		j.mu.Lock()
		joinAttempts += j.attempts
		joinFailed += j.failed
		for _, js := range j.joins {
			if inWindow(js.Start, begin, end) {
				joinMs.add(ms(js.Decoded.Sub(js.Start)))
			}
		}
		for _, at := range j.frames {
			if inWindow(at, begin, end) {
				joinerFrames++
			}
		}
		if j.failed > 0 {
			res.problem("joiner %d: %d of %d joins failed, first: %v", i, j.failed, j.attempts, j.firstErr)
		}
		if j.decodeErrs > 0 {
			res.problem("joiner %d: %d frames failed to decode", i, j.decodeErrs)
		}
		if j.tickRegress > 0 {
			res.problem("joiner %d: frame ticks went backwards %d times", i, j.tickRegress)
		}
		res.Failed += j.decodeErrs
		j.mu.Unlock()
	}
	res.Metrics["join_to_first_frame_p50_ms"] = joinMs.percentile(50)
	res.Metrics["join_to_first_frame_p95_ms"] = joinMs.percentile(95)
	res.Samples["join_to_first_frame_p50_ms"] = joinMs.n()
	res.Samples["join_to_first_frame_p95_ms"] = joinMs.n()

	// --- residents and tiers: Stats() deltas over the window -----------
	var resFrames, resDecodeErrs, stallMs, dgLost, dgStale int64
	var migrations, fallbacks int
	for i := range c.residents {
		a, b := begin.residents[i], end.residents[i]
		resFrames += b.Frames - a.Frames
		resDecodeErrs += b.DecodeErrors - a.DecodeErrors
		stallMs += b.StallMs - a.StallMs
		dgLost += b.DatagramLost - a.DatagramLost
		dgStale += b.DatagramStale - a.DatagramStale
		migrations += b.Migrations - a.Migrations
		fallbacks += b.FallbackTransitions - a.FallbackTransitions
		if b.LastTick < a.LastTick {
			res.problem("resident %d: last tick went backwards", i+residentBaseID)
		}
	}
	if resDecodeErrs > 0 {
		res.problem("residents: %d frames failed to decode", resDecodeErrs)
	}
	if migrations+fallbacks > 0 && !spec.AoI {
		res.problem("residents: %d migrations, %d fallback transitions on a healthy TCP cluster", migrations, fallbacks)
	}
	res.Failed += int(resDecodeErrs) + migrations
	framesAll := resFrames + int64(probeFrames) + int64(joinerFrames)
	cpu := end.cpu - begin.cpu
	res.Metrics["delivered_fps_ratio"] = float64(resFrames+int64(probeFrames)) / (float64(sessions) * nominalFPS * window)
	if framesAll > 0 {
		res.Metrics["process.cpu_ms_per_frame"] = ms(cpu) / float64(framesAll)
	}
	cloudBits := end.cloud.UpdateBits - begin.cloud.UpdateBits
	sinkBits := end.sinkBits - begin.sinkBits
	res.Metrics["cloud_egress_kbit_per_player_s"] = float64(cloudBits-sinkBits) / 1000 / float64(sessions) / window
	ticks := end.cloud.Ticks - begin.cloud.Ticks
	// The live analogue of the simulator's throughput: entity-ticks the
	// authoritative world advanced per wall second, over the entities that
	// are there for the whole window (joiners come and go).
	res.Metrics["sim_playerticks_per_s"] = float64(spec.NPCs+sessions) * float64(ticks) / window

	res.Metrics["fognet.cloud.ticks"] = float64(ticks)
	res.Metrics["fognet.cloud.tick_rate_ratio"] = float64(ticks) / (window / fognet.DefaultTickInterval.Seconds())
	res.Metrics["fognet.cloud.update_kbit_s"] = float64(cloudBits) / 1000 / window
	drops := end.cloud.Resilience.SendQueueDrops - begin.cloud.Resilience.SendQueueDrops
	res.Metrics["fognet.cloud.send_queue_drops"] = float64(drops)
	res.Metrics["fognet.cloud.keyframe_cells"] = float64(end.cloud.KeyframeCells - begin.cloud.KeyframeCells)
	res.Metrics["fognet.cloud.interest_updates"] = float64(end.cloud.InterestUpdates - begin.cloud.InterestUpdates)
	res.Metrics["fognet.fog.frames"] = float64(end.fog.Frames - begin.fog.Frames)
	res.Metrics["fognet.fog.video_kbit_s"] = float64(end.fog.VideoBits-begin.fog.VideoBits) / 1000 / window
	res.Metrics["fognet.fog.applied_deltas"] = float64(end.fog.AppliedDeltas - begin.fog.AppliedDeltas)
	res.Metrics["fognet.fog.stale_deltas"] = float64(end.fog.StaleDeltas - begin.fog.StaleDeltas)
	res.Metrics["fognet.fog.cell_batches"] = float64(end.fog.CellBatches - begin.fog.CellBatches)
	res.Metrics["fognet.fog.dgram_frames"] = float64(end.fog.DatagramFrames - begin.fog.DatagramFrames)
	res.Metrics["fognet.player.frames"] = float64(framesAll)
	res.Metrics["fognet.player.decode_errors"] = float64(resDecodeErrs)
	res.Metrics["fognet.player.stall_ms"] = float64(stallMs)
	res.Metrics["fognet.player.migrations"] = float64(migrations)
	res.Metrics["fognet.player.fallback_transitions"] = float64(fallbacks)
	res.Metrics["fognet.player.dgram_lost"] = float64(dgLost)
	res.Metrics["fognet.player.dgram_stale"] = float64(dgStale)
	res.Metrics["virtualworld.entities"] = float64(end.cloud.Entities)
	res.Metrics["process.cpu_cores_used"] = cpu.Seconds() / window
	res.Metrics["process.gc_cycles_per_s"] = float64(end.mem.NumGC-begin.mem.NumGC) / window
	res.Metrics["process.gc_pause_total_ms"] = float64(end.mem.PauseTotalNs-begin.mem.PauseTotalNs) / 1e6
	res.Metrics["process.alloc_mb_per_s"] = float64(end.mem.TotalAlloc-begin.mem.TotalAlloc) / (1 << 20) / window
	res.Metrics["process.peak_rss_mb"] = peakRSSMB()
	res.Metrics["process.goroutines"] = float64(goroutines)

	if drops > 0 && !spec.AoI {
		res.problem("cloud dropped %d update messages at a full send queue", drops)
	}

	// --- convergence once inputs have stopped --------------------------
	c.sink.mu.Lock()
	final := c.sink.replica.Snapshot()
	if c.sink.decodeErrs > 0 {
		res.problem("sink: %d update batches failed to decode", c.sink.decodeErrs)
	}
	c.sink.mu.Unlock()
	avatarState := map[int]uint8{}
	for _, e := range final.Entities {
		if e.Kind == virtualworld.KindAvatar {
			avatarState[e.Owner] = e.State
		}
	}
	for _, p := range c.probes {
		p.mu.Lock()
		want := p.lastTag
		p.mu.Unlock()
		if got, found := avatarState[int(p.s.id)]; !found || got != want {
			res.problem("probe %d: replica shows state %d (found=%v), last tag sent was %d", p.s.id, got, found, want)
		}
	}
	if len(final.Entities) != quiet.cloud.Entities {
		res.problem("sink replica holds %d entities, the cloud %d", len(final.Entities), quiet.cloud.Entities)
	}
	// Sink and legacy fog are fed the same full-world batches, so the sink
	// must have seen exactly its share of what the cloud says it sent.
	if !spec.AoI {
		if share := float64(cloudBits) / 2; share > 0 && math.Abs(float64(sinkBits)-share)/share > 0.01 {
			res.problem("sink received %d update bits, its share of CloudStats.UpdateBits is %.0f", sinkBits, share)
		}
	} else if sinkBits <= 0 || sinkBits > cloudBits {
		res.problem("sink received %d update bits of the cloud's %d", sinkBits, cloudBits)
	}

	// --- serial fog joins ----------------------------------------------
	for i := 0; i < spec.SerialFogs; i++ {
		t0 := time.Now()
		f, err := fognet.NewFogNode(fognet.FogConfig{Name: fmt.Sprintf("serial-%d", i), CloudAddr: c.cloud.Addr(), Seed: o.Seed})
		if err != nil {
			res.problem("serial fog %d: %v", i, err)
			break
		}
		fogJoins = append(fogJoins, ms(time.Since(t0)))
		f.Close()
	}
	res.Metrics["fognet.fog.join_p50_ms"] = medianOf(fogJoins)

	res.Attempted = actions + joinAttempts + int(framesAll)
	res.Failed += actionsFailed + joinFailed
	if display.n() == 0 || gaps.n() == 0 || joinMs.n() == 0 {
		res.problem("no samples: %d actions, %d frame gaps, %d joins in the window", display.n(), gaps.n(), joinMs.n())
	}
	if actionsFailed > 0 {
		res.problem("%d probe actions saw no frame within %v", actionsFailed, actionTimeout)
	}

	res.Info["window_s"] = window
	res.Info["warmup_s"] = o.Warmup.Seconds()
	res.Info["setups"] = o.Setups
	res.Info["video_sessions"] = sessions + spec.Joiners
	// Two per video session (control + video), the fog's and the sink's
	// cloud links; UDP video adds no connection.
	res.Info["connections"] = 2*(sessions+spec.Joiners) + 2
	res.Info["p95_samples_beyond"] = map[string]int{
		"display_latency_p95_ms":     display.beyond(95),
		"frame_gap_p95_ms":           gaps.beyond(95),
		"join_to_first_frame_p95_ms": joinMs.beyond(95),
	}

	if o.Trace {
		snap, batches := c.sink.replay()
		var viewer int
		if len(c.probes) > 0 {
			viewer = int(c.probes[0].s.id)
		}
		layerPass(res, snap, batches, viewer, spec.Level, 2, window)
		res.Metrics["fognet.fog.frame_wait_p50_ms"] = res.Metrics["fognet.fog.update_to_frame_p50_ms"] -
			(res.Metrics["virtualworld.snapshot_us"]+res.Metrics["render.render_us"]+
				res.Metrics["videocodec.encode_us"]+res.Metrics["protocol.frame_append_us"])/1000
		tr.report(res, o.TraceOut)
	}
	return res
}
