package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a boundary the benchmark can see from
// outside the program. Spans of one action or one join share Trace; Parent
// is the ID of the span that caused this one (0 for a root).
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the run's epoch
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs are made.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// root records a root span and returns its ID, which is also the trace ID
// its children carry.
func (t *tracer) root(name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{Trace: id, ID: id, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id
}

func (t *tracer) child(root uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{Trace: root, ID: t.next, Parent: root, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// action records the span tree of one completed probe action.
func (t *tracer) action(s sample) {
	if t == nil {
		return
	}
	id := t.root("input_to_display", s.Due, s.Frame)
	decodeStart := s.Frame.Add(-s.Decode)
	t.child(id, "fognet.cloud.input_to_update", s.Due, s.Update)
	t.child(id, "fognet.fog.update_to_frame", s.Update, decodeStart)
	t.child(id, "fognet.player.frame_decode", decodeStart, s.Frame)
}

// join records the span tree of one completed join.
func (t *tracer) join(j joinSample) {
	if t == nil {
		return
	}
	id := t.root("join", j.Start, j.Decoded)
	t.child(id, "fognet.cloud.join_handshake", j.Start, j.Joined)
	t.child(id, "fognet.fog.probe_attach", j.Joined, j.Attached)
	t.child(id, "fognet.fog.first_frame_wait", j.Attached, j.FrameRead)
	t.child(id, "fognet.player.frame_decode", j.FrameRead, j.Decoded)
}

// selfTimes returns, per span name, the summed duration and the summed
// self time (duration minus what the span's children cover) in seconds.
func (t *tracer) selfTimes() (names []string, total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	if t == nil {
		return nil, total, self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for _, s := range t.spans {
		d := s.EndNs - s.StartNs
		if _, seen := total[s.Name]; !seen {
			names = append(names, s.Name)
		}
		total[s.Name] += float64(d) / 1e9
		self[s.Name] += float64(d-covered[s.ID]) / 1e9
	}
	return names, total, self
}

// report adds each span name's total and self time to the run's report
// and writes the spans to path.
func (t *tracer) report(res *result, path string) {
	names, total, self := t.selfTimes()
	for _, n := range names {
		res.Report = append(res.Report, fmt.Sprintf("span %-34s total %8.3f s  self %8.3f s", n, total[n], self[n]))
	}
	if err := t.write(path); err != nil {
		res.problem("%v", err)
		return
	}
	res.Report = append(res.Report, "spans written to "+path)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace out %s: %w", path, err)
	}
	return nil
}
