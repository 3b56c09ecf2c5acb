package protocol

import (
	"testing"

	"cloudfog/internal/virtualworld"
)

func TestInterestUpdateRoundTrip(t *testing.T) {
	cases := []InterestUpdate{
		{},
		{Gen: 1, CellSize: 64, Players: []int32{3}},
		{Gen: 9000, CellSize: 32.5, Players: []int32{-1, 0, 7, 2048}},
		{Gen: 2, CellSize: 64},
	}
	for _, m := range cases {
		var got InterestUpdate
		if err := DecodeInterestUpdate(m.AppendTo(nil), &got); err != nil {
			t.Fatalf("unmarshal %+v: %v", m, err)
		}
		if got.Gen != m.Gen || got.CellSize != m.CellSize || len(got.Players) != len(m.Players) {
			t.Fatalf("round trip %+v -> %+v", m, got)
		}
		for i := range m.Players {
			if got.Players[i] != m.Players[i] {
				t.Fatalf("players differ: %v vs %v", got.Players, m.Players)
			}
		}
	}
}

func TestInterestUpdateTruncated(t *testing.T) {
	buf := InterestUpdate{Gen: 1, CellSize: 64, Players: []int32{1, 2}}.AppendTo(nil)
	for i := 0; i < len(buf); i++ {
		if err := DecodeInterestUpdate(buf[:i], new(InterestUpdate)); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
}

func testCellBatch(n int) CellBatch {
	m := CellBatch{Epoch: 3, Tick: 77, Cell: 12, Keyframe: true}
	for i := 0; i < n; i++ {
		m.Deltas = append(m.Deltas, virtualworld.Delta{
			ID: virtualworld.EntityID(i + 1),
			Entity: virtualworld.Entity{
				ID: virtualworld.EntityID(i + 1), Kind: virtualworld.KindNPC,
				Owner: -1, X: float64(i), Y: float64(2 * i), HP: 50, Version: uint32(i + 1),
			},
		})
	}
	if n > 1 {
		m.Deltas[n-1] = virtualworld.Delta{ID: virtualworld.EntityID(n), Removed: true}
	}
	return m
}

func TestCellBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		m := testCellBatch(n)
		var got CellBatch
		if err := DecodeCellBatch(m.AppendTo(nil), &got); err != nil {
			t.Fatalf("unmarshal n=%d: %v", n, err)
		}
		if got.Epoch != m.Epoch || got.Tick != m.Tick || got.Cell != m.Cell ||
			got.Keyframe != m.Keyframe || len(got.Deltas) != len(m.Deltas) {
			t.Fatalf("round trip n=%d: %+v -> %+v", n, m, got)
		}
		for i := range m.Deltas {
			if got.Deltas[i] != m.Deltas[i] {
				t.Fatalf("delta %d differs: %+v vs %+v", i, got.Deltas[i], m.Deltas[i])
			}
		}
	}
}

func TestCellBatchTruncated(t *testing.T) {
	buf := testCellBatch(3).AppendTo(nil)
	for i := 0; i < len(buf); i++ {
		if err := DecodeCellBatch(buf[:i], new(CellBatch)); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
}

// TestDecodeCellBatchSteadyStateAllocs pins the fog-side per-cell decode
// at zero allocations once the delta slice capacity is warm — the same
// bar DecodeUpdateBatch holds.
func TestDecodeCellBatchSteadyStateAllocs(t *testing.T) {
	payload := testCellBatch(64).AppendTo(nil)
	var m CellBatch
	if err := DecodeCellBatch(payload, &m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeCellBatch(payload, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeCellBatch steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecodeInterestUpdateSteadyStateAllocs pins the cloud-side decode.
func TestDecodeInterestUpdateSteadyStateAllocs(t *testing.T) {
	payload := InterestUpdate{Gen: 4, CellSize: 64, Players: []int32{1, 2, 3, 4}}.AppendTo(nil)
	var m InterestUpdate
	if err := DecodeInterestUpdate(payload, &m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeInterestUpdate(payload, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeInterestUpdate steady state: %.1f allocs/op, want 0", allocs)
	}
}
