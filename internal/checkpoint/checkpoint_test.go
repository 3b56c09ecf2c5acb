package checkpoint

import (
	"bytes"
	"testing"

	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// buildState assembles a representative State from live components, the
// way the cloud does on a checkpoint tick.
func buildState(tb testing.TB) (*State, *virtualworld.World, *reputation.GlobalBook, *rng.Rand) {
	tb.Helper()
	w := virtualworld.New(512, 512)
	w.SpawnAvatar(3, 10, 10)
	w.SpawnAvatar(1, 20, 20)
	w.SpawnNPC(100, 100)
	w.SpawnItem(30, 30)
	for i := 0; i < 5; i++ {
		w.Step([]virtualworld.Action{
			{Player: 1, Kind: virtualworld.ActMove, TargetX: 50, TargetY: 50},
			{Player: 3, Kind: virtualworld.ActEmote, StateTag: 2},
		})
	}

	book := reputation.NewGlobalBook(0.9)
	book.Rate(2, 0.8, 0)
	book.Rate(1, 0.6, 1)
	book.Rate(2, 0.9, 1)

	r := rng.New(42).SplitNamed("cloud-ladder")
	for i := 0; i < 17; i++ {
		r.Float64()
	}

	st := &State{Epoch: 7, NextID: w.NextID(), RNG: r.State()}
	w.SnapshotInto(&st.World)
	st.Sessions = append(st.Sessions, 3, 1)
	st.AddrIDs = append(st.AddrIDs,
		AddrID{Addr: "127.0.0.1:9102", ID: 2},
		AddrID{Addr: "127.0.0.1:9101", ID: 1},
	)
	book.StateInto(&st.Book)
	st.Canonicalize()
	return st, w, book, r
}

func TestStateRoundTripBitIdentical(t *testing.T) {
	st, _, _, _ := buildState(t)

	enc := st.AppendTo(nil)

	var got State
	if err := DecodeState(enc, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	re := got.AppendTo(nil)
	if !bytes.Equal(enc, re) {
		t.Fatal("decode→encode is not bit-identical")
	}
	if Hash(enc) != Hash(re) {
		t.Fatal("hash mismatch on identical bytes")
	}

	// Structural spot checks.
	if got.Epoch != st.Epoch || got.NextID != st.NextID || got.RNG != st.RNG {
		t.Fatalf("scalar fields diverged: %+v vs %+v", got, st)
	}
	if !got.World.Equal(st.World) || got.World.Tick != st.World.Tick {
		t.Fatal("world snapshot diverged")
	}
}

func TestRestoreWorldMatchesSource(t *testing.T) {
	st, w, _, _ := buildState(t)
	enc := st.AppendTo(nil)
	var got State
	if err := DecodeState(enc, &got); err != nil {
		t.Fatal(err)
	}
	rw := got.RestoreWorld()
	if !rw.Snapshot().Equal(w.Snapshot()) || rw.Tick() != w.Tick() || rw.NextID() != w.NextID() {
		t.Fatal("restored world differs from source")
	}
}

func TestRestoredComponentsContinueIdentically(t *testing.T) {
	st, _, book, r := buildState(t)
	enc := st.AppendTo(nil)
	var got State
	if err := DecodeState(enc, &got); err != nil {
		t.Fatal(err)
	}
	rr := rng.Restore(got.RNG)
	for i := 0; i < 20; i++ {
		if a, b := rr.Float64(), r.Float64(); a != b {
			t.Fatalf("rng diverged at %d: %v != %v", i, a, b)
		}
	}
	rb := reputation.RestoreGlobalBook(got.Book)
	for id := 1; id <= 2; id++ {
		if a, b := rb.Score(id, 4), book.Score(id, 4); a != b {
			t.Fatalf("book score %d: %v != %v", id, a, b)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	st, _, _, _ := buildState(t)
	enc := st.AppendTo(nil)

	var s State
	if err := DecodeState(enc[:10], &s); err == nil {
		t.Error("truncated buffer accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if err := DecodeState(bad, &s); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[5] ^= 0xff // version
	if err := DecodeState(bad, &s); err == nil {
		t.Error("bad version accepted")
	}
	if err := DecodeState(append(append([]byte(nil), enc...), 0), &s); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	st, _, _, _ := buildState(t)
	// Break session order.
	st.Sessions[0], st.Sessions[1] = st.Sessions[1], st.Sessions[0]
	enc := st.AppendTo(nil)
	var s State
	if err := DecodeState(enc, &s); err != ErrNotCanonical {
		t.Fatalf("unsorted sessions accepted: %v", err)
	}
}

func TestLogEntryRoundTrip(t *testing.T) {
	e := LogEntry{
		Epoch:  3,
		Tick:   991,
		NextID: 57,
		Deltas: []virtualworld.Delta{
			{ID: 4, Entity: virtualworld.Entity{ID: 4, Kind: virtualworld.KindAvatar, Owner: 9, X: 1.5, Y: 2.5, HP: 88, Version: 12}},
			{ID: 9, Removed: true},
			{ID: 11, Entity: virtualworld.Entity{ID: 11, Kind: virtualworld.KindNPC, Owner: -1, X: 7, Y: 8, HP: 40, State: 1, Version: 3}},
		},
	}
	enc := e.AppendTo(nil)
	var got LogEntry
	if err := DecodeLogEntry(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, got.AppendTo(nil)) {
		t.Fatal("log entry decode→encode not bit-identical")
	}
	if err := DecodeLogEntry(enc[:7], &got); err == nil {
		t.Error("truncated log entry accepted")
	}
}

// TestReplayReproducesPrimary is the heart of the recovery guarantee: a
// checkpoint plus the subsequent delta log rebuilds the exact world the
// primary reached, asserted by hash over the canonical encoding.
func TestReplayReproducesPrimary(t *testing.T) {
	w := virtualworld.New(256, 256)
	w.SpawnAvatar(1, 10, 10)
	w.SpawnAvatar(2, 200, 200)
	w.SpawnNPC(50, 50)

	// Checkpoint at the current tick.
	st := &State{Epoch: 5, NextID: w.NextID()}
	w.SnapshotInto(&st.World)
	st.Canonicalize()

	// The primary keeps ticking; each tick's deltas (plus membership
	// changes, here a mid-log spawn and a removal) are logged.
	var log []LogEntry
	step := func(extra []virtualworld.Delta, acts ...virtualworld.Action) {
		deltas := w.Step(acts)
		deltas = append(deltas, extra...)
		log = append(log, LogEntry{
			Epoch:  5,
			Tick:   w.Tick(),
			NextID: w.NextID(),
			Deltas: append([]virtualworld.Delta(nil), deltas...),
		})
	}
	step(nil, virtualworld.Action{Player: 1, Kind: virtualworld.ActMove, TargetX: 30, TargetY: 30})
	step(nil) // empty tick: still logged (liveness)
	av := w.SpawnAvatar(7, 66, 66)
	step([]virtualworld.Delta{{ID: av.ID, Entity: av}},
		virtualworld.Action{Player: 2, Kind: virtualworld.ActEmote, StateTag: 3})
	gone, _ := w.Avatar(1)
	w.RemovePlayer(1)
	step([]virtualworld.Delta{{ID: gone.ID, Removed: true}})

	// A stale entry from an older epoch must be ignored.
	log = append(log, LogEntry{Epoch: 4, Tick: w.Tick() + 1, NextID: 1})

	got := Replay(st, log)

	want := &State{Epoch: 5, NextID: w.NextID()}
	w.SnapshotInto(&want.World)
	want.Canonicalize()
	have := &State{Epoch: 5, NextID: got.NextID()}
	got.SnapshotInto(&have.World)
	have.Canonicalize()

	ew, eh := want.AppendTo(nil), have.AppendTo(nil)
	if Hash(ew) != Hash(eh) || !bytes.Equal(ew, eh) {
		t.Fatal("replayed world is not bit-identical to the primary's")
	}
	if got.NextID() != w.NextID() {
		t.Fatalf("allocator diverged: %d vs %d", got.NextID(), w.NextID())
	}
}

// TestAppendToSteadyStateAllocs pins the tick-path budget: encoding a
// checkpoint or a log entry into a warmed buffer allocates nothing.
func TestAppendToSteadyStateAllocs(t *testing.T) {
	st, _, _, _ := buildState(t)
	buf := st.AppendTo(nil)
	if a := testing.AllocsPerRun(100, func() { buf = st.AppendTo(buf[:0]) }); a != 0 {
		t.Fatalf("State.AppendTo allocated %v/op at steady state", a)
	}

	e := LogEntry{Epoch: 1, Tick: 2, NextID: 3, Deltas: []virtualworld.Delta{
		{ID: 1, Entity: virtualworld.Entity{ID: 1, Version: 1}},
		{ID: 2, Removed: true},
	}}
	lbuf := e.AppendTo(nil)
	if a := testing.AllocsPerRun(100, func() { lbuf = e.AppendTo(lbuf[:0]) }); a != 0 {
		t.Fatalf("LogEntry.AppendTo allocated %v/op at steady state", a)
	}

	var dst State
	if err := DecodeState(buf, &dst); err != nil {
		t.Fatal(err)
	}
	// Decode reuses arrays except addr strings (interned per decode).
	if a := testing.AllocsPerRun(100, func() {
		if err := DecodeState(buf, &dst); err != nil {
			t.Fatal(err)
		}
	}); a > float64(len(dst.AddrIDs)) {
		t.Fatalf("DecodeState allocated %v/op, want <= %d (addr strings)", a, len(dst.AddrIDs))
	}
}

func BenchmarkCheckpointAppend(b *testing.B) {
	w := virtualworld.New(1024, 1024)
	for i := 0; i < 64; i++ {
		w.SpawnNPC(float64(i), float64(i))
	}
	for p := 0; p < 16; p++ {
		w.SpawnAvatar(p, float64(p*8), float64(p*8))
	}
	book := reputation.NewGlobalBook(0.9)
	for id := 1; id <= 8; id++ {
		book.Rate(id, 0.7, 0)
	}
	r := rng.New(1)
	st := &State{Epoch: 1, NextID: w.NextID(), RNG: r.State()}
	w.SnapshotInto(&st.World)
	for p := 0; p < 16; p++ {
		st.Sessions = append(st.Sessions, int32(p))
	}
	book.StateInto(&st.Book)
	st.Canonicalize()

	buf := st.AppendTo(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = st.AppendTo(buf[:0])
	}
}

func BenchmarkCheckpointDecode(b *testing.B) {
	st, _, _, _ := buildState(b)
	enc := st.AppendTo(nil)
	var dst State
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeState(enc, &dst); err != nil {
			b.Fatal(err)
		}
	}
}
