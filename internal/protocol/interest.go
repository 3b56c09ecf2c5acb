package protocol

import (
	"math"

	"cloudfog/internal/virtualworld"
)

// This file encodes the interest-management messages of DESIGN.md §14:
// fogs name their attached players upstream (InterestUpdate) and the cloud
// answers with per-cell slices of the Λ update stream (CellBatch) around
// those players' avatars instead of the full-world MsgUpdateBatch. Both
// follow the PR 3 conventions: AppendTo append-encoders, DecodeInto
// decoders that reuse the destination's slice capacity, arithmetic size
// accounting.

// InterestUpdate is a supernode's AoI report: the players it serves. The
// cloud derives the subscribed cells from their authoritative avatars.
type InterestUpdate struct {
	// Gen is a fog-local report counter starting at 1; the cloud keeps the
	// highest seen so a reordered/duplicated report can never roll the
	// player list back.
	Gen uint32
	// CellSize is the cell edge of the fog's replica grid. A mismatch with
	// the cloud's geometry voids the report (the supernode stays
	// full-world) rather than letting keyframe cell IDs land on the wrong
	// cells.
	CellSize float64
	// Players are the attached player IDs, ascending.
	Players []int32
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m InterestUpdate) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(m.Gen)
	w.f64(m.CellSize)
	w.u32(uint32(len(m.Players)))
	for _, p := range m.Players {
		w.i32(p)
	}
	return w.buf
}

// DecodeInterestUpdate decodes into m, reusing m.Players' capacity. On
// error m holds partially decoded data and must not be used.
func DecodeInterestUpdate(buf []byte, m *InterestUpdate) error {
	r := &reader{buf: buf}
	m.Gen = r.u32()
	m.CellSize = r.f64()
	m.Players = m.Players[:0]
	np := int(r.u32())
	if np > MaxPayload/4 {
		return ErrTooLarge
	}
	for i := 0; i < np && r.err == nil; i++ {
		m.Players = append(m.Players, r.i32())
	}
	return r.finish()
}

// CellBatch carries one tick's deltas for one grid cell — one slice of
// the Λ stream, encoded once per dirty cell and fanned to exactly the
// supernodes subscribed to that cell.
type CellBatch struct {
	// Epoch is the authority epoch of the sending cloud (same semantics
	// as UpdateBatch.Epoch).
	Epoch uint64
	// Tick is the world tick the deltas belong to.
	Tick uint64
	// Cell is the grid cell the deltas fall in, or virtualworld.CellNone
	// for position-less deltas (removals and session events) that every
	// subscriber receives.
	Cell uint32
	// Keyframe marks a cell-enter seed: Deltas is the cell's complete
	// entity population, and the receiver prunes in-cell entities the
	// batch does not mention.
	Keyframe bool
	// Deltas are the changed (or, for a keyframe, all) entities, sorted
	// by ID.
	Deltas []virtualworld.Delta
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m CellBatch) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.uvarint(m.Epoch)
	w.uvarint(m.Tick)
	// Cell+1, wrapping, so that CellNone — every removal and session event
	// rides it — is the one-byte zero.
	w.uvarint(uint64(m.Cell + 1))
	w.boolean(m.Keyframe)
	appendDeltas(&w, m.Deltas)
	return w.buf
}

// DecodeCellBatch decodes into m, reusing m.Deltas' capacity — the
// allocation-free decode for the supernode's per-tick apply loop. On
// error m holds partially decoded data and must not be used.
func DecodeCellBatch(buf []byte, m *CellBatch) error {
	r := &reader{buf: buf}
	m.Epoch = r.uvarint(math.MaxUint64)
	m.Tick = r.uvarint(math.MaxUint64)
	m.Cell = uint32(r.uvarint(math.MaxUint32)) - 1
	m.Keyframe = r.boolean()
	m.Deltas = readDeltas(r, m.Deltas)
	return r.finish()
}
