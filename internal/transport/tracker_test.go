package transport

import "testing"

func track(t *testing.T, tr *RecvTracker, epoch, seq uint64, want Verdict) {
	t.Helper()
	if got := tr.Track(epoch, seq); got != want {
		t.Fatalf("Track(%d,%d) = %v, want %v (stats %+v)", epoch, seq, got, want, tr.Stats())
	}
}

func TestTrackerInOrder(t *testing.T) {
	var tr RecvTracker
	for seq := uint64(10); seq < 20; seq++ {
		track(t, &tr, 1, seq, Fresh)
	}
	s := tr.Stats()
	if s.Delivered != 10 || s.Lost != 0 || s.Stale != 0 || s.Duplicates != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestTrackerGapCountsLost(t *testing.T) {
	var tr RecvTracker
	track(t, &tr, 1, 1, Fresh)
	track(t, &tr, 1, 5, Fresh) // 2,3,4 lost
	s := tr.Stats()
	if s.Lost != 3 || s.Delivered != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestTrackerLateArrivalReclassified(t *testing.T) {
	var tr RecvTracker
	track(t, &tr, 1, 1, Fresh)
	track(t, &tr, 1, 4, Fresh)     // 2,3 provisionally lost
	track(t, &tr, 1, 3, Stale)     // late: dropped, reclassified
	track(t, &tr, 1, 3, Duplicate) // seen twice
	track(t, &tr, 1, 2, Stale)
	s := tr.Stats()
	if s.Lost != 0 {
		t.Errorf("lost %d after all gaps filled late, want 0", s.Lost)
	}
	if s.Reordered != 2 || s.Stale != 2 || s.Duplicates != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestTrackerDuplicateOfDelivered(t *testing.T) {
	var tr RecvTracker
	track(t, &tr, 1, 7, Fresh)
	track(t, &tr, 1, 7, Duplicate)
	track(t, &tr, 1, 8, Fresh)
	track(t, &tr, 1, 7, Duplicate)
}

func TestTrackerEpochs(t *testing.T) {
	var tr RecvTracker
	track(t, &tr, 3, 100, Fresh)
	// An older epoch's datagram is stale no matter its sequence.
	track(t, &tr, 2, 900, Stale)
	// A newer epoch resets the order: the failed-over sender restarts
	// sequencing and must not be punished by the old stream's position.
	track(t, &tr, 4, 1, Fresh)
	track(t, &tr, 4, 2, Fresh)
	s := tr.Stats()
	if s.Delivered != 3 || s.Stale != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestTrackerLargeJumpResetsWindow(t *testing.T) {
	var tr RecvTracker
	track(t, &tr, 1, 1, Fresh)
	track(t, &tr, 1, 200, Fresh)
	s := tr.Stats()
	if s.Lost != 198 {
		t.Errorf("lost %d, want 198", s.Lost)
	}
	// Sequences that fell out of the 64-wide memory stay classified as
	// they were; a very late arrival is stale but not reclassified.
	track(t, &tr, 1, 10, Stale)
	if got := tr.Stats(); got.Lost != 198 || got.Reordered != 0 {
		t.Errorf("stats %+v", got)
	}
}

func TestTrackerTakeWindow(t *testing.T) {
	var tr RecvTracker
	track(t, &tr, 1, 1, Fresh)
	track(t, &tr, 1, 4, Fresh)
	d, l, st := tr.TakeWindow()
	if d != 2 || l != 2 || st != 0 {
		t.Errorf("window = %d,%d,%d", d, l, st)
	}
	// Reset: a fresh window starts clean.
	d, l, st = tr.TakeWindow()
	if d != 0 || l != 0 || st != 0 {
		t.Errorf("second window = %d,%d,%d", d, l, st)
	}
	track(t, &tr, 1, 3, Stale) // late fill: window lost cannot go negative
	d, l, st = tr.TakeWindow()
	if d != 0 || l != 0 || st != 1 {
		t.Errorf("third window = %d,%d,%d", d, l, st)
	}
}

func TestTrackerTrackAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	var tr RecvTracker
	seq := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seq += 2 // every other datagram lost: worst-case bookkeeping
		tr.Track(1, seq)
	})
	if allocs != 0 {
		t.Errorf("Track allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkDatagramHeader(b *testing.B) {
	h := Header{Kind: DgramFrame, Token: 1, Epoch: 2, Seq: 3, Tick: 4}
	buf := make([]byte, 0, HeaderLen)
	var out Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Seq++
		buf = h.AppendTo(buf[:0])
		if _, err := ParseHeader(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackerTrack(b *testing.B) {
	var tr RecvTracker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Track(1, uint64(i))
	}
}
