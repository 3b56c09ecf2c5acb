package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"cloudfog/internal/virtualworld"
)

// edgeDeltas are the records whose fields sit on the edges of their wire
// ranges, and the coordinates no == comparison can vouch for.
func edgeDeltas() []virtualworld.Delta {
	ent := func(id virtualworld.EntityID, owner int, hp int16, version uint32, x, y, facing float64) virtualworld.Delta {
		return virtualworld.Delta{ID: id, Entity: virtualworld.Entity{ID: id, Kind: virtualworld.KindAvatar,
			Owner: owner, X: x, Y: y, Facing: facing, HP: hp, State: 255, Version: version}}
	}
	negZero := math.Copysign(0, -1)
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	return []virtualworld.Delta{
		ent(0, -1, -1, 0, 0, negZero, math.Inf(1)),
		ent(math.MaxUint32, math.MaxInt32, math.MinInt16, math.MaxUint32, math.Inf(-1), math.NaN(), payloadNaN),
		ent(127, math.MinInt32, math.MaxInt16, 128, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64),
		{ID: 0, Removed: true},
		{ID: math.MaxUint32, Removed: true},
		ent(16384, 63, 100, 16383, 1.5, 2.5, 0.7),
	}
}

func randomDeltas(rng *rand.Rand) []virtualworld.Delta {
	deltas := make([]virtualworld.Delta, rng.Intn(12))
	for i := range deltas {
		// Shifted so that every varint length turns up.
		id := virtualworld.EntityID(rng.Uint32() >> uint(rng.Intn(32)))
		if rng.Intn(5) == 0 {
			deltas[i] = virtualworld.Delta{ID: id, Removed: true}
			continue
		}
		deltas[i] = virtualworld.Delta{ID: id, Entity: virtualworld.Entity{
			ID: id, Kind: virtualworld.EntityKind(rng.Intn(256)),
			Owner:   int(int32(rng.Uint32()) >> uint(rng.Intn(32))),
			X:       math.Float64frombits(rng.Uint64()),
			Y:       math.Float64frombits(rng.Uint64()),
			Facing:  math.Float64frombits(rng.Uint64()),
			HP:      int16(rng.Uint32()),
			State:   uint8(rng.Uint32()),
			Version: rng.Uint32() >> uint(rng.Intn(32)),
		}}
	}
	return deltas
}

// sameDeltas compares records field by field, the coordinates by their
// bits: NaN payloads and the sign of zero must survive.
func sameDeltas(t *testing.T, what string, got, want []virtualworld.Delta) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d deltas, want %d", what, len(got), len(want))
	}
	bits := math.Float64bits
	for i, w := range want {
		g := got[i]
		ge, we := g.Entity, w.Entity
		if g.ID != w.ID || g.Removed != w.Removed || ge.ID != we.ID || ge.Kind != we.Kind ||
			ge.Owner != we.Owner || ge.HP != we.HP || ge.State != we.State || ge.Version != we.Version ||
			bits(ge.X) != bits(we.X) || bits(ge.Y) != bits(we.Y) || bits(ge.Facing) != bits(we.Facing) {
			t.Errorf("%s: delta %d is %+v, want %+v", what, i, g, w)
		}
	}
}

// TestDeltaRecordLossless: whatever a batch of either type holds comes back
// out of its encoding field for field and bit for bit, and re-encodes to the
// identical bytes.
func TestDeltaRecordLossless(t *testing.T) {
	check := func(what string, epoch, tick uint64, cell uint32, keyframe bool, deltas []virtualworld.Delta) {
		t.Helper()
		ub := UpdateBatch{Epoch: epoch, Tick: tick, Deltas: deltas}
		enc := ub.AppendTo(nil)
		var gotU UpdateBatch
		if err := DecodeUpdateBatch(enc, &gotU); err != nil {
			t.Fatalf("%s: update batch: %v", what, err)
		}
		if gotU.Epoch != epoch || gotU.Tick != tick {
			t.Errorf("%s: update batch header %d/%d, want %d/%d", what, gotU.Epoch, gotU.Tick, epoch, tick)
		}
		sameDeltas(t, what+": update batch", gotU.Deltas, deltas)
		if !bytes.Equal(gotU.AppendTo(nil), enc) {
			t.Errorf("%s: update batch re-encodes differently", what)
		}

		cb := CellBatch{Epoch: epoch, Tick: tick, Cell: cell, Keyframe: keyframe, Deltas: deltas}
		enc = cb.AppendTo(nil)
		var gotC CellBatch
		if err := DecodeCellBatch(enc, &gotC); err != nil {
			t.Fatalf("%s: cell batch: %v", what, err)
		}
		if gotC.Epoch != epoch || gotC.Tick != tick || gotC.Cell != cell || gotC.Keyframe != keyframe {
			t.Errorf("%s: cell batch header %+v", what, gotC)
		}
		sameDeltas(t, what+": cell batch", gotC.Deltas, deltas)
		if !bytes.Equal(gotC.AppendTo(nil), enc) {
			t.Errorf("%s: cell batch re-encodes differently", what)
		}
	}
	check("empty", 0, 0, 0, false, nil)
	check("edges", 1, 77, 9, false, edgeDeltas())
	check("cell-none keyframe", math.MaxUint64, math.MaxUint64, virtualworld.CellNone, true, edgeDeltas())
	check("last cell", 1<<32, 1<<40, virtualworld.CellNone-1, true, edgeDeltas()[:1])
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 500; i++ {
		check("random", rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64)),
			rng.Uint32()>>uint(rng.Intn(32))-1, rng.Intn(2) == 0, randomDeltas(rng))
	}

	// The sentinel cell and a quiet world's small numbers are what the
	// format is shaped for: one byte each.
	if n := len(CellBatch{Epoch: 1, Tick: 100, Cell: virtualworld.CellNone}.AppendTo(nil)); n != 5 {
		t.Errorf("empty CellNone batch is %d bytes, want 5", n)
	}
}

// TestDeltaRecordHostile: bytes no encoder produces are refused by both
// batch types, and a count is never believed before the bytes are there to
// back it.
func TestDeltaRecordHostile(t *testing.T) {
	uv := binary.AppendUvarint
	// A record up to and including its kind, and what follows its varints.
	head := append(uv(nil, 7), 0, byte(virtualworld.KindNPC))
	tail := make([]byte, 8+8+8+2+1)
	whole := UpdateBatch{Deltas: edgeDeltas()}.AppendTo(nil)[2:] // behind epoch and tick
	for _, tc := range []struct {
		name    string
		records []byte // what follows the batch header: the count, then the records
	}{
		{"11-byte varint", bytes.Repeat([]byte{0x80}, 11)},
		{"count 2^63", uv(nil, 1<<63)},
		{"count one more than the records", append(uv(nil, 7), whole[1:]...)},
		{"ID past uint32", append(uv(uv(nil, 1), math.MaxUint32+1), 1)},
		{"owner past int32", append(uv(uv(append(uv(nil, 1), head...), math.MaxUint32+1), 1), tail...)},
		{"version past uint32", append(uv(uv(append(uv(nil, 1), head...), 0), math.MaxUint32+1), tail...)},
		{"one trailing byte", append(append([]byte(nil), whole...), 0)},
	} {
		m := UpdateBatch{Deltas: make([]virtualworld.Delta, 0, 8)}
		err := DecodeUpdateBatch(append([]byte{1, 1}, tc.records...), &m)
		if err == nil || cap(m.Deltas) != 8 {
			t.Errorf("update batch: %s: err %v, Deltas grew from 8 to %d", tc.name, err, cap(m.Deltas))
		}
		if tc.name == "count 2^63" && !errors.Is(err, ErrTooLarge) {
			t.Errorf("update batch: %s: err %v, want ErrTooLarge", tc.name, err)
		}
		c := CellBatch{Deltas: make([]virtualworld.Delta, 0, 8)}
		err = DecodeCellBatch(append([]byte{1, 1, 0, 0}, tc.records...), &c)
		if err == nil || cap(c.Deltas) != 8 {
			t.Errorf("cell batch: %s: err %v, Deltas grew from 8 to %d", tc.name, err, cap(c.Deltas))
		}
	}
	if err := DecodeCellBatch(append(uv([]byte{1, 1}, math.MaxUint32+1), 0, 0), new(CellBatch)); err == nil {
		t.Error("cell batch: cell past uint32 accepted")
	}
}
