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

// Encoder compresses a frame stream with I/P frames and rate control.
type Encoder struct {
	// GOP is the group-of-pictures length: an I-frame every GOP frames.
	GOP int
	// TargetKbps is the bitrate the rate controller tracks (0 disables
	// rate control; quantization stays at 1).
	TargetKbps float64

	prev    []byte // previous DECODED (quantized) frame, for P references
	cur     []byte // scratch for the current quantized frame (swapped with prev)
	diff    []byte // scratch for P-frame deltas
	w, h    int
	count   int
	quant   int
	bitsAcc float64 // rolling bits-per-frame average
}

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

// quantize buckets a luminance value with step q.
func quantize(v byte, q int) byte {
	if q <= 1 {
		return v
	}
	return byte(int(v) / q * q)
}

// EncodeInto compresses one frame into ef: the first frame, every GOP-th
// frame, and any resolution change produce an I-frame, the rest are
// P-frames. It reuses ef.Data's capacity and the encoder's internal
// scratch buffers: zero allocations per frame in steady state. ef must
// not be shared with a previous EncodeInto call that is still in flight
// (the fog streams one frame at a time per session, so each session owns
// one EncodedFrame).
func (e *Encoder) EncodeInto(f *render.Frame, ef *EncodedFrame) {
	if e.GOP <= 0 {
		e.GOP = DefaultGOP
	}
	if e.quant < 1 {
		e.quant = 1
	}
	isI := e.count%e.GOP == 0 || e.prev == nil || e.w != f.Width || e.h != f.Height
	e.count++

	// Quantize into the reusable scratch buffer.
	q := e.quant
	if cap(e.cur) < len(f.Pix) {
		e.cur = make([]byte, len(f.Pix))
	}
	cur := e.cur[:len(f.Pix)]
	for i, v := range f.Pix {
		cur[i] = quantize(v, q)
	}

	if isI {
		ef.Type = IFrame
		ef.Data = rleAppend(ef.Data[:0], cur)
	} else {
		ef.Type = PFrame
		if cap(e.diff) < len(cur) {
			e.diff = make([]byte, len(cur))
		}
		diff := e.diff[:len(cur)]
		prev := e.prev[:len(cur)]
		for i := range cur {
			diff[i] = cur[i] - prev[i]
		}
		ef.Data = rleAppend(ef.Data[:0], diff)
	}
	// Double-buffer: cur becomes the P-frame reference, the old reference
	// becomes next frame's scratch.
	e.prev, e.cur = cur, e.prev
	e.w, e.h = f.Width, f.Height

	ef.Width, ef.Height = f.Width, f.Height
	ef.Quant = uint8(q)
	ef.Tick = f.Tick
	e.adaptQuant(ef.SizeBits())
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
	prev    []byte
	cur     []byte // scratch for the frame being reconstructed
	payload []byte // scratch for the RLE-expanded payload
	w, h    int
}

// Errors returned by DecodeInto.
var (
	ErrNoReference   = errors.New("videocodec: P-frame without a reference frame")
	ErrCorruptStream = errors.New("videocodec: corrupt payload")
)

// DecodeInto reconstructs one frame into f, reusing the decoder's internal
// buffers: zero allocations per frame in steady state. f.Pix aliases
// decoder-owned memory and is valid only until the next DecodeInto call;
// callers that keep pixels longer must copy them.
func (d *Decoder) DecodeInto(ef *EncodedFrame, f *render.Frame) error {
	n := ef.Width * ef.Height
	// The header is network bytes: nothing is allocated for it before the
	// payload proves it can fill the frame. One RLE (count, value) pair
	// expands to at most 255 pixels.
	if n <= 0 || n > 255*(len(ef.Data)/2) {
		return fmt.Errorf("%w: bad dimensions %dx%d for %d payload bytes", ErrCorruptStream, ef.Width, ef.Height, len(ef.Data))
	}
	if cap(d.payload) < n {
		d.payload = make([]byte, 0, n)
	}
	payload, err := rleDecodeInto(d.payload[:0], ef.Data, n)
	if err != nil {
		return err
	}
	d.payload = payload[:0]
	if cap(d.cur) < n {
		d.cur = make([]byte, n)
	}
	pix := d.cur[:n]
	switch ef.Type {
	case IFrame:
		copy(pix, payload)
	case PFrame:
		if d.prev == nil || d.w != ef.Width || d.h != ef.Height {
			return ErrNoReference
		}
		prev := d.prev[:n]
		for i := range pix {
			pix[i] = prev[i] + payload[i]
		}
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrCorruptStream, ef.Type)
	}
	// Double-buffer: pix becomes the P-frame reference, the old reference
	// becomes next frame's scratch.
	d.prev, d.cur = pix, d.prev
	d.w, d.h = ef.Width, ef.Height
	f.Width, f.Height, f.Pix, f.Tick = ef.Width, ef.Height, pix, ef.Tick
	return nil
}

// --- run-length coding ----------------------------------------------------

// rleAppend compresses data with byte-level RLE, appending (count, value)
// pairs to out; with enough capacity it does not allocate.
func rleAppend(out, data []byte) []byte {
	i := 0
	for i < len(data) {
		v := data[i]
		run := 1
		for i+run < len(data) && data[i+run] == v && run < 255 {
			run++
		}
		out = append(out, byte(run), v)
		i += run
	}
	return out
}

// rleDecodeInto expands an RLE payload to exactly n bytes appended to out;
// with enough capacity it does not allocate.
func rleDecodeInto(out, data []byte, n int) ([]byte, error) {
	if len(data)%2 != 0 {
		return nil, fmt.Errorf("%w: odd RLE length", ErrCorruptStream)
	}
	base := len(out)
	for i := 0; i+1 < len(data); i += 2 {
		run, v := int(data[i]), data[i+1]
		if run == 0 || len(out)-base+run > n {
			return nil, fmt.Errorf("%w: RLE overflow", ErrCorruptStream)
		}
		for j := 0; j < run; j++ {
			out = append(out, v)
		}
	}
	if len(out)-base != n {
		return nil, fmt.Errorf("%w: RLE underflow (%d of %d)", ErrCorruptStream, len(out)-base, n)
	}
	return out, nil
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
