// Package videocodec implements the game-video encoder/decoder supernodes
// run: frames from internal/render are compressed to the Table 2 bitrate
// ladder with intra-frame (quantization + run-length) and inter-frame
// (previous-frame delta) compression — the compressed-graphics-streaming
// approach of the LiveRender system the paper compares against, reduced to
// its essentials.
//
// The encoder carries a simple rate controller: the quantization step
// adapts per frame so the output stream tracks a target bitrate, which is
// exactly the knob the receiver-driven adaptation of §3.3 turns when it
// changes quality levels.
package videocodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"cloudfog/internal/game"
	"cloudfog/internal/render"
)

// FrameType distinguishes encoded frames.
type FrameType uint8

const (
	// IFrame is intra-coded: decodable alone.
	IFrame FrameType = 1
	// PFrame is inter-coded: a delta against the previous decoded frame.
	PFrame FrameType = 2
)

// EncodedFrame is one compressed video frame.
type EncodedFrame struct {
	// Type is I or P.
	Type FrameType
	// Width, Height are the frame dimensions.
	Width, Height int
	// Quant is the quantization step used (1 = lossless bucketing).
	Quant uint8
	// Tick is the world tick of the source frame.
	Tick uint64
	// Data is the run-length-encoded payload.
	Data []byte
}

// SizeBits returns the encoded size in bits, including a fixed header
// estimate.
func (e *EncodedFrame) SizeBits() int { return (len(e.Data) + frameHeaderBytes) * 8 }

const frameHeaderBytes = 18

// Encoder compresses a frame stream with I/P frames and rate control. It
// does work only where the source frame says it changed (render.Frame's
// damage): one encoder should be the only consumer of the one frame it is
// fed, and any other arrangement — another frame each call, a frame
// another encoder also reads, a hand-built frame — is encoded correctly
// but with every tile dirty.
type Encoder struct {
	// GOP is the group-of-pictures length: an I-frame every GOP frames.
	GOP int
	// TargetKbps is the bitrate the rate controller tracks (0 disables
	// rate control; quantization stays at 1).
	TargetKbps float64

	// ref is the previous DECODED (quantized) frame, the P-frame reference,
	// w×h at step refQuant, updated in place where the source changed.
	ref      []byte
	w, h     int
	refQuant int
	// src is the frame ref was last brought up to date with and srcGen the
	// damage generation it was left at: the frame's damage describes ref
	// only while both still match.
	src    *render.Frame
	srcGen uint64
	spans  []span    // scratch: this frame's dirty pixel ranges
	cols   []span    // scratch: one tile row's dirty column ranges
	table  [256]byte // quantize(v, tableQuant) for every v
	// tableQuant is the step table was built for (0: not built).
	tableQuant int

	count   int
	quant   int
	bitsAcc float64 // rolling bits-per-frame average
	full    int64   // frames encoded with every tile dirty
}

// span is a range of pixels [off, end) in row-major order.
type span struct{ off, end int }

// DefaultGOP is the default group-of-pictures length (one I-frame per
// second at 30 fps).
const DefaultGOP = 30

// NewEncoder creates an encoder targeting the given bitrate. A
// non-positive target disables rate control and pins quantization to 1
// (lossless).
func NewEncoder(targetKbps float64) *Encoder {
	quant := 4
	if targetKbps <= 0 {
		quant = 1
	}
	return &Encoder{GOP: DefaultGOP, TargetKbps: targetKbps, quant: quant}
}

// ForceKeyframe makes the next encoded frame an I-frame, restarting the
// GOP. Senders call it when a receiver (re)joins mid-stream — a
// transport switch, for instance — so the new receiver is not stuck
// undecodable until the GOP rolls over.
func (e *Encoder) ForceKeyframe() { e.count = 0 }

// FullEncodes counts the frames encoded with every tile dirty — the first
// frame, a resolution or quantization-step change, a source frame whose
// damage is unknown — each of which costs the whole picture instead of
// what moved in it.
func (e *Encoder) FullEncodes() int64 { return e.full }

// EncodeInto compresses one frame into ef: the first frame, every GOP-th
// frame, and any resolution change produce an I-frame, the rest are
// P-frames. It reuses ef.Data's capacity and the encoder's internal
// scratch buffers: zero allocations per frame in steady state. ef must
// not be shared with a previous EncodeInto call that is still in flight
// (the fog streams one frame at a time per session, so each session owns
// one EncodedFrame). It consumes f's damage.
func (e *Encoder) EncodeInto(f *render.Frame, ef *EncodedFrame) {
	if e.GOP <= 0 {
		e.GOP = DefaultGOP
	}
	if e.quant < 1 {
		e.quant = 1
	}
	n := len(f.Pix)
	resized := e.ref == nil || e.w != f.Width || e.h != f.Height
	isI := e.count%e.GOP == 0 || resized
	e.count++

	// Where ref must be brought up to date: the frame's damage when ref
	// is this frame's last encode at this step, everywhere otherwise.
	var tiles []uint64
	if !resized && e.src == f && e.refQuant == e.quant {
		tiles = f.Damage(e.srcGen)
	}
	if tiles != nil {
		e.dirtySpans(tiles, f.Width, f.Height)
	} else {
		e.spans = append(e.spans[:0], span{0, n})
	}
	e.src, e.srcGen = f, f.ClearDamage() // after the read: tiles aliases what this zeroes
	if len(e.spans) == 1 && e.spans[0] == (span{0, n}) {
		e.full++
	}
	if cap(e.ref) < n {
		e.ref = make([]byte, n)
	}
	ref := e.ref[:n]
	e.ref, e.w, e.h, e.refQuant = ref, f.Width, f.Height, e.quant
	if e.tableQuant != e.quant {
		for v := range e.table {
			e.table[v] = quantize(byte(v), e.quant)
		}
		e.tableQuant = e.quant
	}

	out := runWriter{buf: ef.Data[:0]}
	if isI {
		ef.Type = IFrame
		for _, s := range e.spans {
			src, dst := f.Pix[s.off:s.end], ref[s.off:s.end]
			for i, v := range src {
				dst[i] = e.table[v]
			}
		}
		out.appendRuns(ref)
	} else {
		// The delta is zero wherever nothing was drawn: only the spans are
		// computed, the gaps between them are counted.
		ef.Type = PFrame
		pos := 0
		for _, s := range e.spans {
			out.add(0, s.off-pos)
			src, dst := f.Pix[s.off:s.end], ref[s.off:s.end]
			for i, v := range src {
				q := e.table[v]
				out.add(q-dst[i], 1)
				dst[i] = q
			}
			pos = s.end
		}
		out.add(0, n-pos)
	}
	out.flush()
	ef.Data = out.buf

	ef.Width, ef.Height = f.Width, f.Height
	ef.Quant = uint8(e.quant)
	ef.Tick = f.Tick
	e.adaptQuant(ef.SizeBits())
}

// quantize buckets a luminance value with step q.
func quantize(v byte, q int) byte {
	if q <= 1 {
		return v
	}
	return byte(int(v) / q * q)
}

// dirtySpans sets e.spans to the pixel ranges of a w×h frame covered by
// the set tiles, in pixel order and merged where they touch.
func (e *Encoder) dirtySpans(tiles []uint64, w, h int) {
	const ts = render.TileSize
	e.spans = e.spans[:0]
	tw := (w + ts - 1) / ts
	for ty := 0; ty*ts < h; ty++ {
		// The tile row's dirty columns, then that pattern on each of its
		// pixel rows.
		e.cols = e.cols[:0]
		for tx := 0; tx < tw; tx++ {
			if t := ty*tw + tx; tiles[t/64]&(1<<(t%64)) != 0 {
				e.cols = appendSpan(e.cols, span{tx * ts, min((tx+1)*ts, w)})
			}
		}
		if len(e.cols) == 0 {
			continue
		}
		for y := ty * ts; y < (ty+1)*ts && y < h; y++ {
			for _, c := range e.cols {
				e.spans = appendSpan(e.spans, span{y*w + c.off, y*w + c.end})
			}
		}
	}
}

// appendSpan appends s, or extends the last span when s starts where it
// ends.
func appendSpan(spans []span, s span) []span {
	if k := len(spans) - 1; k >= 0 && spans[k].end == s.off {
		spans[k].end = s.end
		return spans
	}
	return append(spans, s)
}

// adaptQuant steers the quantization step toward the target bits/frame.
func (e *Encoder) adaptQuant(lastBits int) {
	if e.TargetKbps <= 0 {
		e.quant = 1
		return
	}
	targetBits := e.TargetKbps * 1000 / game.FrameRate
	// Exponential moving average of output size.
	if e.bitsAcc == 0 {
		e.bitsAcc = float64(lastBits)
	} else {
		e.bitsAcc = 0.8*e.bitsAcc + 0.2*float64(lastBits)
	}
	switch {
	case e.bitsAcc > 1.2*targetBits && e.quant < 64:
		e.quant *= 2
	case e.bitsAcc < 0.5*targetBits && e.quant > 1:
		e.quant /= 2
	}
}

// Decoder reconstructs frames from an encoded stream.
type Decoder struct {
	ref  []byte // the last decoded frame, updated in place
	w, h int
}

// Errors returned by DecodeInto.
var (
	ErrNoReference   = errors.New("videocodec: P-frame without a reference frame")
	ErrCorruptStream = errors.New("videocodec: corrupt payload")
)

// DecodeInto reconstructs one frame into f, in the decoder's one reference
// buffer: zero allocations per frame in steady state, and a P-frame costs
// what changed in it. f.Pix is that reference — it is valid only until the
// next DecodeInto call, which rewrites it, and must not be written; callers
// that keep pixels longer must copy them. A frame that is rejected leaves
// the decoder, and the last frame it returned, as they were.
func (d *Decoder) DecodeInto(ef *EncodedFrame, f *render.Frame) error {
	n := ef.Width * ef.Height
	// The header is network bytes: nothing is allocated for it before the
	// payload proves it can fill the frame. One RLE (count, value) pair
	// expands to at most 255 pixels.
	if n <= 0 || n > 255*(len(ef.Data)/2) {
		return fmt.Errorf("%w: bad dimensions %dx%d for %d payload bytes", ErrCorruptStream, ef.Width, ef.Height, len(ef.Data))
	}
	// Everything that can be wrong with the frame is found before the
	// reference is touched.
	if err := rleCheck(ef.Data, n); err != nil {
		return err
	}
	switch ef.Type {
	case IFrame:
		if cap(d.ref) < n {
			d.ref = make([]byte, n)
		}
		d.ref = d.ref[:n]
		// A long run arrives as a train of 255s: fill it as one.
		for i, pos := 0, 0; i < len(ef.Data); {
			v, run := ef.Data[i+1], 0
			for ; i < len(ef.Data) && ef.Data[i+1] == v; i += 2 {
				run += int(ef.Data[i])
			}
			fill(d.ref[pos:pos+run], v)
			pos += run
		}
	case PFrame:
		if d.ref == nil || d.w != ef.Width || d.h != ef.Height {
			return ErrNoReference
		}
		pos := 0
		for i := 0; i < len(ef.Data); i += 2 {
			run, v := int(ef.Data[i]), ef.Data[i+1]
			if v != 0 {
				for j := pos; j < pos+run; j++ {
					d.ref[j] += v
				}
			}
			pos += run
		}
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrCorruptStream, ef.Type)
	}
	d.w, d.h = ef.Width, ef.Height
	f.Width, f.Height, f.Pix, f.Tick = ef.Width, ef.Height, d.ref, ef.Tick
	return nil
}

// fill sets every byte of dst to v, doubling the filled prefix with copy.
func fill(dst []byte, v byte) {
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for done := 1; done < len(dst); done *= 2 {
		copy(dst[done:], dst[:done])
	}
}

// --- run-length coding ----------------------------------------------------

// The payload is byte-level RLE: (count, value) pairs, count 1..255, each
// run taken greedily — as long as the value repeats, up to 255 — so a
// longer run is a train of (255, v) pairs and a remainder.

// runWriter appends RLE pairs to buf from runs of any length: add extends
// the pending run or, on a new value, writes it out, so a run that arrives
// in pieces (pixel by pixel, or as the counted gap between two dirty
// spans) is cut into exactly the pairs a byte-by-byte pass would produce.
type runWriter struct {
	buf []byte
	v   byte
	n   int // length of the pending run of v, 0 before the first add
}

// add appends n more bytes of value v to the stream.
func (w *runWriter) add(v byte, n int) {
	if n == 0 {
		return // an empty gap must not cut the run on either side of it
	}
	if v != w.v {
		w.flush()
		w.v = v
	}
	w.n += n
}

// flush writes the pending run out; buf is complete after the last one.
func (w *runWriter) flush() {
	for ; w.n > 255; w.n -= 255 {
		w.buf = append(w.buf, 255, w.v)
	}
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.n), w.v)
	}
	w.n = 0
}

// appendRuns appends all of data.
func (w *runWriter) appendRuns(data []byte) {
	for len(data) > 0 {
		n := runLength(data)
		w.add(data[0], n)
		data = data[n:]
	}
}

// runLength returns how many leading bytes of data, which is not empty,
// equal its first, comparing eight at a time.
func runLength(data []byte) int {
	v := data[0]
	n := 1
	for pattern := uint64(v) * 0x0101010101010101; n+8 <= len(data); n += 8 {
		if x := binary.LittleEndian.Uint64(data[n:]) ^ pattern; x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for n < len(data) && data[n] == v {
		n++
	}
	return n
}

// rleCheck reports whether data is a well-formed RLE payload of exactly n
// bytes.
func rleCheck(data []byte, n int) error {
	if len(data)%2 != 0 {
		return fmt.Errorf("%w: odd RLE length", ErrCorruptStream)
	}
	total := 0
	for i := 0; i < len(data); i += 2 {
		run := int(data[i])
		if run == 0 || total+run > n {
			return fmt.Errorf("%w: RLE overflow", ErrCorruptStream)
		}
		total += run
	}
	if total != n {
		return fmt.Errorf("%w: RLE underflow (%d of %d)", ErrCorruptStream, total, n)
	}
	return nil
}

// --- wire helpers ----------------------------------------------------------

// Marshal serializes an encoded frame for transport.
func (ef *EncodedFrame) Marshal() []byte {
	return ef.AppendTo(make([]byte, 0, ef.EncodedSize()))
}

// EncodedSize returns the exact Marshal()ed length in bytes.
func (ef *EncodedFrame) EncodedSize() int { return frameHeaderBytes + len(ef.Data) }

// AppendTo appends the serialized frame to buf and returns the extended
// slice; with enough capacity it does not allocate. It implements
// protocol.Appender, so a frame can be framed and flushed in one write:
//
//	buf, err = protocol.AppendMessage(buf[:0], protocol.MsgVideoFrame, ef)
func (ef *EncodedFrame) AppendTo(buf []byte) []byte {
	var hdr [frameHeaderBytes]byte
	hdr[0] = byte(ef.Type)
	hdr[1] = ef.Quant
	binary.BigEndian.PutUint16(hdr[2:], uint16(ef.Width))
	binary.BigEndian.PutUint16(hdr[4:], uint16(ef.Height))
	binary.BigEndian.PutUint64(hdr[6:], ef.Tick)
	binary.BigEndian.PutUint32(hdr[14:], uint32(len(ef.Data)))
	buf = append(buf, hdr[:]...)
	return append(buf, ef.Data...)
}

// UnmarshalFrameInto parses a serialized encoded frame into ef without
// copying: ef.Data aliases buf, so it is valid only as long as buf is —
// for a payload from protocol.FrameReader, until the next Next call. The
// thin-client decode loop decodes each frame before reading the next, so
// it never needs the copy.
func UnmarshalFrameInto(buf []byte, ef *EncodedFrame) error {
	if len(buf) < frameHeaderBytes {
		return fmt.Errorf("%w: short frame header", ErrCorruptStream)
	}
	n := int(binary.BigEndian.Uint32(buf[14:]))
	if len(buf) < frameHeaderBytes+n {
		return fmt.Errorf("%w: truncated frame payload", ErrCorruptStream)
	}
	ef.Type = FrameType(buf[0])
	ef.Quant = buf[1]
	ef.Width = int(binary.BigEndian.Uint16(buf[2:]))
	ef.Height = int(binary.BigEndian.Uint16(buf[4:]))
	ef.Tick = binary.BigEndian.Uint64(buf[6:])
	ef.Data = buf[frameHeaderBytes : frameHeaderBytes+n]
	return nil
}
