// Package checkpoint serializes the authoritative cloud-tier state —
// world entities, admitted player sessions, the reputation GlobalBook,
// and RNG stream positions — into a deterministic, versioned binary
// form, and restores it bit-identically.
//
// This is the crash-recovery substrate of DESIGN.md §12: the primary
// encodes a State on a tick-aligned cadence and streams it (plus a
// per-tick delta log) to a warm standby; on promotion the standby
// rebuilds the exact world the primary last committed. Determinism is
// load-bearing: because every simulator input is seeded and the encoding
// is canonical (entities, sessions, address IDs, and book entries in
// sorted order; big-endian fixed-width fields), equality of state is
// equality of bytes, so recovery is testable by hashing.
//
// Encoders follow the zero-allocation append style of the wire path
// (DESIGN.md §10): AppendTo(buf) []byte grows the caller's buffer, and
// decode reuses the destination's backing arrays. A steady-state
// checkpoint encode performs zero allocations.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// Magic and Version identify the checkpoint format. Version bumps on any
// layout change; a standby refuses checkpoints from a different version
// rather than guessing.
const (
	Magic   uint32 = 0x43464B50 // "CFKP"
	Version uint16 = 1
)

// Decode errors.
var (
	// ErrBadMagic means the buffer is not a checkpoint.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrBadVersion means the checkpoint was written by an incompatible
	// format version.
	ErrBadVersion = errors.New("checkpoint: unsupported version")
	// ErrTruncated means the buffer ended mid-field.
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrNotCanonical means a sorted section was out of order — the bytes
	// could not have been produced by AppendTo, so bit-identity guarantees
	// would not hold.
	ErrNotCanonical = errors.New("checkpoint: non-canonical encoding")
)

// AddrID is one entry of the cloud's stable address→ID assignment, which
// keys the reputation book. It must survive failover or post-promotion
// QoE reports would be credited to fresh IDs.
type AddrID struct {
	// Addr is the supernode's advertised stream address.
	Addr string
	// ID is the stable reputation ID assigned to it.
	ID int32
}

// State is one deterministic snapshot of the authoritative cloud state.
// All slice fields are in canonical (sorted) order; AppendTo encodes them
// as-is and DecodeState verifies the order.
type State struct {
	// Epoch is the authority epoch the snapshot was taken in.
	Epoch uint64
	// World is the entity snapshot (entities ascending by ID).
	World virtualworld.Snapshot
	// NextID is the world's entity ID allocator position.
	NextID virtualworld.EntityID
	// Sessions are the admitted player IDs, ascending.
	Sessions []int32
	// AddrIDs is the address→reputation-ID table, ascending by Addr.
	AddrIDs []AddrID
	// Book is the reputation GlobalBook (entries ascending by supernode ID).
	Book reputation.BookState
	// RNG is the cloud's ladder-ranking stream position.
	RNG rng.State
}

const entityBytes = 4 + 1 + 4 + 8 + 8 + 8 + 2 + 1 + 4 // 40

// AppendTo appends the canonical encoding of s to buf and returns the
// extended slice; with enough capacity it does not allocate.
func (s *State) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, Magic)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.BigEndian.AppendUint64(buf, s.Epoch)

	buf = binary.BigEndian.AppendUint64(buf, s.World.Tick)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.World.Width))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.World.Height))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.World.Entities)))
	for i := range s.World.Entities {
		buf = appendEntity(buf, &s.World.Entities[i])
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.NextID))

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Sessions)))
	for _, p := range s.Sessions {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.AddrIDs)))
	for _, a := range s.AddrIDs {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Addr)))
		buf = append(buf, a.Addr...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.ID))
	}

	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Book.Lambda))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Book.Entries)))
	for _, e := range s.Book.Entries {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(e.SupernodeID)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Ratings)))
		for _, r := range e.Ratings {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Value))
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.Day)))
		}
	}

	buf = binary.BigEndian.AppendUint64(buf, s.RNG.Seed)
	buf = binary.BigEndian.AppendUint64(buf, s.RNG.Splits)
	buf = binary.BigEndian.AppendUint64(buf, s.RNG.Draws)
	return buf
}

// DecodeState decodes buf into s, reusing s's backing arrays (entities,
// sessions, address table, book entries and their rating slices). On
// error s holds partially decoded data and must not be used.
func DecodeState(buf []byte, s *State) error {
	d := dec{buf: buf}
	if d.u32() != Magic {
		if d.err != nil {
			return d.err
		}
		return ErrBadMagic
	}
	if v := d.u16(); v != Version {
		if d.err != nil {
			return d.err
		}
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	s.Epoch = d.u64()

	s.World.Tick = d.u64()
	s.World.Width = d.f64()
	s.World.Height = d.f64()
	ne := int(d.u32())
	if !d.fits(ne, entityBytes) {
		return ErrTruncated
	}
	s.World.Entities = s.World.Entities[:0]
	for i := 0; i < ne; i++ {
		s.World.Entities = append(s.World.Entities, d.entity())
		if i > 0 && s.World.Entities[i].ID <= s.World.Entities[i-1].ID {
			return ErrNotCanonical
		}
	}
	s.NextID = virtualworld.EntityID(d.u32())

	ns := int(d.u32())
	if !d.fits(ns, 4) {
		return ErrTruncated
	}
	s.Sessions = s.Sessions[:0]
	for i := 0; i < ns; i++ {
		s.Sessions = append(s.Sessions, d.i32())
		if i > 0 && s.Sessions[i] <= s.Sessions[i-1] {
			return ErrNotCanonical
		}
	}

	na := int(d.u32())
	if !d.fits(na, 2+4) {
		return ErrTruncated
	}
	s.AddrIDs = s.AddrIDs[:0]
	for i := 0; i < na; i++ {
		s.AddrIDs = append(s.AddrIDs, AddrID{Addr: d.str(), ID: d.i32()})
		if i > 0 && s.AddrIDs[i].Addr <= s.AddrIDs[i-1].Addr {
			return ErrNotCanonical
		}
	}

	s.Book.Lambda = d.f64()
	nb := int(d.u32())
	if !d.fits(nb, 4+4) {
		return ErrTruncated
	}
	entries := s.Book.Entries[:0]
	for i := 0; i < nb; i++ {
		if len(entries) < cap(entries) {
			entries = entries[:len(entries)+1]
		} else {
			entries = append(entries, reputation.BookEntry{})
		}
		e := &entries[len(entries)-1]
		e.SupernodeID = int(d.i32())
		nr := int(d.u32())
		if !d.fits(nr, 8+4) {
			return ErrTruncated
		}
		e.Ratings = e.Ratings[:0]
		for k := 0; k < nr; k++ {
			e.Ratings = append(e.Ratings, reputation.Rating{Value: d.f64(), Day: int(d.i32())})
		}
		if i > 0 && entries[i].SupernodeID <= entries[i-1].SupernodeID {
			return ErrNotCanonical
		}
	}
	s.Book.Entries = entries

	s.RNG.Seed = d.u64()
	s.RNG.Splits = d.u64()
	s.RNG.Draws = d.u64()
	if d.err != nil {
		return d.err
	}
	if d.off != len(buf) {
		return fmt.Errorf("checkpoint: %d trailing bytes", len(buf)-d.off)
	}
	return nil
}

// Canonicalize sorts the slice fields of s into canonical order. The
// cloud fills State from map-backed structures whose iteration order is
// arbitrary; this makes the subsequent AppendTo deterministic. It
// allocates nothing.
func (s *State) Canonicalize() {
	slices.SortFunc(s.World.Entities, func(a, b virtualworld.Entity) int {
		return int(int64(a.ID) - int64(b.ID))
	})
	slices.Sort(s.Sessions)
	slices.SortFunc(s.AddrIDs, func(a, b AddrID) int {
		switch {
		case a.Addr < b.Addr:
			return -1
		case a.Addr > b.Addr:
			return 1
		default:
			return 0
		}
	})
	slices.SortFunc(s.Book.Entries, func(a, b reputation.BookEntry) int {
		return a.SupernodeID - b.SupernodeID
	})
}

// RestoreWorld rebuilds an authoritative World from the snapshot —
// bit-identical to the world the checkpoint was taken from.
func (s *State) RestoreWorld() *virtualworld.World {
	return virtualworld.Restore(s.World, s.NextID)
}

// Hash returns the FNV-1a 64 digest of an encoded checkpoint or log
// entry. Because the encoding is canonical, equal hashes over equal-epoch
// states mean bit-identical authoritative state.
func Hash(encoded []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range encoded {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// --- binary helpers ---------------------------------------------------------

func appendEntity(buf []byte, e *virtualworld.Entity) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.ID))
	buf = append(buf, uint8(e.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(e.Owner)))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.X))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Y))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Facing))
	buf = binary.BigEndian.AppendUint16(buf, uint16(e.HP))
	buf = append(buf, e.State)
	buf = binary.BigEndian.AppendUint32(buf, e.Version)
	return buf
}

// dec is a bounds-checked cursor over an encoded buffer, mirroring the
// wire protocol's reader idiom.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return false
	}
	return true
}

// fits sanity-checks a decoded element count against the bytes remaining,
// so a corrupt count fails fast instead of growing a huge slice.
func (d *dec) fits(count, minBytes int) bool {
	if d.err != nil {
		return false
	}
	if count < 0 || count*minBytes > len(d.buf)-d.off {
		d.err = ErrTruncated
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u16())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) entity() virtualworld.Entity {
	return virtualworld.Entity{
		ID:      virtualworld.EntityID(d.u32()),
		Kind:    virtualworld.EntityKind(d.u8()),
		Owner:   int(d.i32()),
		X:       d.f64(),
		Y:       d.f64(),
		Facing:  d.f64(),
		HP:      int16(d.u16()),
		State:   d.u8(),
		Version: d.u32(),
	}
}
