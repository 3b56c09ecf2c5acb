package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cloudfog/internal/virtualworld"
)

// TestSpecMatchesBenchmarkJSON keeps the tables the runner emits from and
// the file the driver reads in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the runner %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the runner %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the runner %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the runner %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if spec.RunSeconds < 20 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 20..60", spec.RunSeconds)
	}
}

func TestNextTagWraps(t *testing.T) {
	if got := nextTag(0); got != firstTag {
		t.Errorf("first tag = %d, want %d", got, firstTag)
	}
	if got := nextTag(lastTag); got != firstTag {
		t.Errorf("tag after %d = %d, want %d", lastTag, got, firstTag)
	}
	seen := map[uint8]bool{}
	tag := uint8(0)
	for i := 0; i < 300; i++ {
		tag = nextTag(tag)
		if tag < firstTag {
			t.Fatalf("tag %d below %d", tag, firstTag)
		}
		seen[tag] = true
	}
	if len(seen) != lastTag-firstTag+1 {
		t.Errorf("cycle visits %d tags, want %d", len(seen), lastTag-firstTag+1)
	}
}

func at(msec int) time.Time { return time.Unix(1000, 0).Add(time.Duration(msec) * time.Millisecond) }

func TestMatcherTagWrapAround(t *testing.T) {
	var m matcher
	// Three actions across the wrap: 254, 255, 2.
	m.sent(254, at(0), at(0), false)
	m.sent(255, at(100), at(100), false)
	m.sent(2, at(200), at(200), false)
	m.update(254, 10, at(30))
	m.frame(10, at(60), time.Millisecond)
	m.update(255, 12, at(130))
	m.update(2, 14, at(230))
	m.frame(14, at(260), time.Millisecond) // shows ticks 12 and 14 at once
	done, expired := m.finish()
	if expired != 0 || len(done) != 3 {
		t.Fatalf("done %d, expired %d, want 3 and 0", len(done), expired)
	}
	wantTick := []uint64{10, 12, 14}
	wantFrame := []time.Time{at(60), at(260), at(260)}
	for i, s := range done {
		if s.Tick != wantTick[i] || !s.Frame.Equal(wantFrame[i]) {
			t.Errorf("sample %d: tick %d frame %v, want tick %d frame %v", i, s.Tick, s.Frame, wantTick[i], wantFrame[i])
		}
	}
}

func TestMatcherTwoActionsInOneTick(t *testing.T) {
	var m matcher
	m.sent(7, at(0), at(0), false)
	m.sent(8, at(20), at(20), false)
	// The world applied both in tick 5; the avatar only ever shows tag 8.
	m.update(8, 5, at(40))
	m.frame(5, at(70), 0)
	done, expired := m.finish()
	if expired != 0 || len(done) != 2 || done[0].Tag != 7 || done[1].Tag != 8 || done[0].Tick != 5 {
		t.Fatalf("done %+v expired %d", done, expired)
	}
}

func TestMatcherFrameSkipsTicksAndArrivesEarly(t *testing.T) {
	var m matcher
	m.sent(2, at(0), at(0), false)
	m.frame(3, at(10), 0) // too old to show it
	// The frame for tick 6 is decoded before the sink reports tick 5.
	m.frame(6, at(50), 0)
	m.update(2, 5, at(55))
	done, _ := m.finish()
	if len(done) != 1 || !done[0].Frame.Equal(at(50)) || done[0].Tick != 5 {
		t.Fatalf("done %+v, want one sample completed by the tick-6 frame", done)
	}
}

func TestMatcherExpiry(t *testing.T) {
	var m matcher
	m.sent(2, at(0), at(0), false)
	m.sent(3, at(1500), at(1500), false) // registering this one times the first out
	if m.outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", m.outstanding())
	}
	done, expired := m.finish()
	if len(done) != 0 || expired != 2 {
		t.Fatalf("done %d expired %d, want 0 and 2", len(done), expired)
	}
}

func TestDispatchTwoProbesInOneBatch(t *testing.T) {
	a, b := &matcher{}, &matcher{}
	a.sent(2, at(0), at(0), false)
	b.sent(9, at(5), at(5), false)
	avatar := func(owner int, state uint8) virtualworld.Delta {
		return virtualworld.Delta{ID: virtualworld.EntityID(owner), Entity: virtualworld.Entity{
			ID: virtualworld.EntityID(owner), Kind: virtualworld.KindAvatar, Owner: owner, State: state}}
	}
	deltas := []virtualworld.Delta{
		avatar(101, 2),
		{ID: 7, Entity: virtualworld.Entity{ID: 7, Kind: virtualworld.KindNPC, Owner: -1, State: 9}},
		avatar(55, 9), // some other player that happens to carry tag 9
		avatar(102, 9),
		{ID: 101, Removed: true},
	}
	dispatch(map[int]*matcher{101: a, 102: b}, deltas, 4, at(30))
	a.frame(4, at(60), 0)
	b.frame(4, at(61), 0)
	da, _ := a.finish()
	db, _ := b.finish()
	if len(da) != 1 || len(db) != 1 || da[0].Tag != 2 || db[0].Tag != 9 || da[0].Tick != 4 || db[0].Tick != 4 {
		t.Fatalf("a %+v b %+v", da, db)
	}
}

func TestDist(t *testing.T) {
	var d dist
	if d.percentile(50) != 0 || d.n() != 0 {
		t.Error("empty dist should read 0")
	}
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	if d.n() != 100 {
		t.Errorf("n = %d", d.n())
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 50.5}, {95, 95.05}, {100, 100}} {
		if got := d.percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := d.beyond(95); got != 5 {
		t.Errorf("beyond(95) = %d, want 5", got)
	}
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("medianOf = %v", got)
	}
}

// checkEmitted asserts the run produced every named metric of both sets
// with a finite value, and nothing that BENCHMARK.json does not name.
func checkEmitted(t *testing.T, res *result) {
	t.Helper()
	named := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			named[d.Name] = true
		}
	}
	for name := range res.Metrics {
		if !named[name] {
			t.Errorf("unnamed metric %s", name)
		}
	}
	for _, trace := range []bool{false, true} {
		for name, mv := range emit(res, trace) {
			if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
				t.Errorf("%s is not finite", name)
			}
			if !trace && mv.Value == 0 && !raceEnabled {
				t.Errorf("end-to-end metric %s is 0", name)
			}
		}
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	// Timing-dependent checks (generator lateness, frame deadlines) are not
	// meaningful at race-detector speed, and the race build runs without
	// joiners (see TestSmokeLive), so it has no join samples.
	if !res.Correct && !raceEnabled {
		t.Errorf("correctness checks failed: %v", res.Problems)
	}
}

func TestSmokeLive(t *testing.T) {
	for _, w := range workloads {
		if w.Live == nil {
			continue
		}
		w := w
		t.Run(w.Name, func(t *testing.T) {
			// Reduced size: a small world at a low quality level, so three
			// runs fit in a few seconds even under the race detector.
			spec := *w.Live
			spec.Level = 1
			if spec.NPCs > 500 {
				spec.NPCs = 500
			}
			if spec.SerialFogs > 3 {
				spec.SerialFogs = 3
			}
			if raceEnabled {
				// Joins and departures while the cloud ticks trip a data
				// race inside the product (CloudServer.tickOnce fans out a
				// delta slice that aliases s.sessionDeltas after dropping
				// the lock, while servePlayer/dropPlayer append to it). The
				// benchmark may not fix product code, so the race build
				// checks the benchmark's own goroutines without churn.
				spec.Joiners = 0
			}
			small := workload{Name: w.Name, Live: &spec}
			res := runLive(&small, runOpts{Seed: 7, Window: 2 * time.Second, Warmup: 500 * time.Millisecond,
				Setups: 2, Trace: true, TraceOut: filepath.Join(t.TempDir(), "trace.jsonl")})
			checkEmitted(t, res)
		})
	}
}

func TestSmokeSim(t *testing.T) {
	w := workload{Name: "sim_fog_50k", Sim: &simSpec{Players: 2000}}
	res := runSim(&w, runOpts{Seed: 7, Window: 2 * time.Second, Trace: true,
		TraceOut: filepath.Join(t.TempDir(), "trace.jsonl")}, "")
	checkEmitted(t, res)
	if !res.Correct {
		t.Errorf("correctness checks failed: %v", res.Problems)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	setup, window, invalid := 10.0, 24.0, ""
	write := func(name string, latency float64, failed int) string {
		rec := runRecord{Workload: "stream_hd", Seed: 1}
		rec.Correct, rec.Attempted, rec.Failed, rec.Invalid = failed == 0, 100, failed, invalid
		rec.Metrics = map[string]metricValue{}
		for _, m := range endToEnd {
			rec.Metrics[m.Name] = metricValue{Value: 10, Unit: m.Unit}
		}
		rec.Metrics["display_latency_p50_ms"] = metricValue{Value: latency, Unit: "ms"}
		rec.Metrics["setup_s"] = metricValue{Value: setup, Unit: "s"}
		buf, err := json.Marshal(resultFile{Provenance: provenance{WindowS: window, WarmupS: 3}, Runs: []runRecord{rec}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "display_latency_p50_ms" {
			bound = m.Bound
		}
	}
	base := write("a.json", 50, 0)
	if code := compareFiles(base, write("same.json", 50*(1+0.4*bound), 0), spec); code != 0 {
		t.Errorf("worse by 0.4 of the bound: exit %d, want 0", code)
	}
	if code := compareFiles(base, write("slow.json", 50*(1+1.2*bound), 0), spec); code != 1 {
		t.Errorf("worse by 1.2 of the bound: exit %d, want 1", code)
	}
	if code := compareFiles(base, write("fail.json", 50, 3), spec); code != 1 {
		t.Errorf("more failed operations: exit %d, want 1", code)
	}
	// setup_s: the larger of its relative bound and setupFloor seconds.
	setup = 0.064
	quick := write("quick.json", 50, 0)
	setup = 0.064 + 0.9*setupFloor
	if code := compareFiles(quick, write("wobble.json", 50, 0), spec); code != 0 {
		t.Errorf("setup_s worse by less than the floor: exit %d, want 0", code)
	}
	setup = 0.064 + 1.1*setupFloor
	if code := compareFiles(quick, write("slowsetup.json", 50, 0), spec); code != 1 {
		t.Errorf("setup_s worse by more than the floor and the bound: exit %d, want 1", code)
	}
	setup, window = 10, 12
	if code := compareFiles(base, write("short.json", 50, 0), spec); code != 2 {
		t.Errorf("different window: exit %d, want 2", code)
	}
	setup, window, invalid = 10, 24, "load generator ran late"
	if code := compareFiles(base, write("late.json", 50, 0), spec); code != 2 {
		t.Errorf("a run marked invalid: exit %d, want 2", code)
	}
	if code := compareFiles(base, filepath.Join(dir, "missing.json"), spec); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
