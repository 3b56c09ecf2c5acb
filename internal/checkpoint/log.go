package checkpoint

import (
	"encoding/binary"
	"fmt"

	"cloudfog/internal/virtualworld"
)

// LogEntry is one tick of the primary's delta log: everything a standby
// must fold into its last checkpoint to track the authoritative world
// exactly. Unlike the supernode update stream, the log also carries
// session-membership changes (avatar spawns and despawns are encoded as
// full-state / removal deltas by the cloud) and the entity ID allocator
// position, so replaying checkpoint+log reproduces the primary's world
// bit-for-bit, not just its visible entities.
//
// The primary emits one entry per tick even when Deltas is empty: the
// stream doubles as the liveness signal the standby's promotion timer
// watches (DESIGN.md §12).
type LogEntry struct {
	// Epoch is the authority epoch the tick was computed in.
	Epoch uint64
	// Tick is the world tick after applying Deltas.
	Tick uint64
	// NextID is the entity ID allocator position after the tick.
	NextID virtualworld.EntityID
	// Deltas are the tick's entity changes, including session spawns and
	// removals, in authoritative order.
	Deltas []virtualworld.Delta
}

// AppendTo appends the encoded entry to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (e *LogEntry) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, e.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, e.Tick)
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.NextID))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Deltas)))
	for i := range e.Deltas {
		d := &e.Deltas[i]
		buf = binary.BigEndian.AppendUint32(buf, uint32(d.ID))
		if d.Removed {
			buf = append(buf, 1)
			continue
		}
		buf = append(buf, 0)
		buf = appendEntity(buf, &d.Entity)
	}
	return buf
}

// DecodeLogEntry decodes buf into e, reusing e.Deltas' capacity. On error
// e holds partially decoded data and must not be used.
func DecodeLogEntry(buf []byte, e *LogEntry) error {
	d := dec{buf: buf}
	e.Epoch = d.u64()
	e.Tick = d.u64()
	e.NextID = virtualworld.EntityID(d.u32())
	n := int(d.u32())
	if !d.fits(n, 4+1) {
		return ErrTruncated
	}
	e.Deltas = e.Deltas[:0]
	for i := 0; i < n; i++ {
		id := virtualworld.EntityID(d.u32())
		if d.u8() != 0 {
			e.Deltas = append(e.Deltas, virtualworld.Delta{ID: id, Removed: true})
			continue
		}
		e.Deltas = append(e.Deltas, virtualworld.Delta{ID: id, Entity: d.entity()})
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(buf) {
		return fmt.Errorf("checkpoint: %d trailing bytes", len(buf)-d.off)
	}
	return nil
}

// Apply folds one log entry into a restored world. Entries come from a
// single totally-ordered primary, so deltas are applied unconditionally
// (no version gating, unlike replica convergence).
func (e *LogEntry) Apply(w *virtualworld.World) {
	for i := range e.Deltas {
		d := &e.Deltas[i]
		if d.Removed {
			w.RemoveEntity(d.ID)
			continue
		}
		w.SetEntity(d.Entity)
	}
	w.SetTick(e.Tick)
	w.SetNextID(e.NextID)
}

// Replay rebuilds the authoritative world from a checkpoint plus its
// delta log suffix. Entries belonging to an epoch other than the
// checkpoint's, or to ticks the checkpoint already covers, are skipped —
// the standby buffers log entries concurrently with checkpoint arrival,
// so overlap at the boundary is expected.
func Replay(st *State, entries []LogEntry) *virtualworld.World {
	w := st.RestoreWorld()
	for i := range entries {
		e := &entries[i]
		if e.Epoch != st.Epoch || e.Tick <= w.Tick() {
			continue
		}
		e.Apply(w)
	}
	return w
}
