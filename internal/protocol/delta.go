package protocol

import (
	"math"

	"cloudfog/internal/virtualworld"
)

// This file is the one delta-record codec of the Λ update stream, shared by
// UpdateBatch and CellBatch. A batch is sent every tick, and a busy cloud
// ticks many times per TickInterval, so the stream is encoded for its common
// case — one or two records behind a small epoch and tick — rather than at
// fixed width:
//
//	uvarint count, then per record
//	uvarint ID | u8 removed | (unless removed)
//	u8 kind | zig-zag varint Owner | uvarint Version |
//	f64 X | f64 Y | f64 Facing | u16 HP | u8 State
//
// The ID travels once (Delta.ID and Entity.ID are the same entity). The
// coordinates stay 8-byte IEEE: a replica must be bit-equal to the
// authority, NaN payloads included. Snapshots (putEntity) and everything in
// internal/checkpoint keep fixed-width records: they are sent once per
// admission or per second, and checkpoint.Hash is defined over their bytes.

// minDeltaBytes is the shortest record: a removal of a one-byte ID.
const minDeltaBytes = 2

func appendDeltas(w *writer, deltas []virtualworld.Delta) {
	w.uvarint(uint64(len(deltas)))
	for i := range deltas {
		d := &deltas[i]
		w.uvarint(uint64(d.ID))
		w.boolean(d.Removed)
		if d.Removed {
			continue
		}
		e := &d.Entity
		w.u8(uint8(e.Kind))
		owner := int32(e.Owner)
		w.uvarint(uint64(uint32(owner<<1) ^ uint32(owner>>31)))
		w.uvarint(uint64(e.Version))
		w.f64(e.X)
		w.f64(e.Y)
		w.f64(e.Facing)
		w.u16(uint16(e.HP))
		w.u8(e.State)
	}
}

// readDeltas decodes a record list into dst's capacity. The count is
// checked against the bytes that remain before dst grows, so a hostile
// count costs nothing.
func readDeltas(r *reader, dst []virtualworld.Delta) []virtualworld.Delta {
	dst = dst[:0]
	n := r.uvarint(math.MaxUint64)
	if r.err == nil && n > uint64(len(r.buf)-r.off)/minDeltaBytes {
		r.err = ErrTooLarge
	}
	for ; n > 0 && r.err == nil; n-- {
		id := virtualworld.EntityID(r.uvarint(math.MaxUint32))
		if r.boolean() {
			dst = append(dst, virtualworld.Delta{ID: id, Removed: true})
			continue
		}
		e := virtualworld.Entity{ID: id, Kind: virtualworld.EntityKind(r.u8())}
		owner := uint32(r.uvarint(math.MaxUint32))
		e.Owner = int(int32(owner>>1) ^ -int32(owner&1))
		e.Version = uint32(r.uvarint(math.MaxUint32))
		e.X, e.Y, e.Facing = r.f64(), r.f64(), r.f64()
		e.HP, e.State = int16(r.u16()), r.u8()
		dst = append(dst, virtualworld.Delta{ID: id, Entity: e})
	}
	return dst
}
