// Zero-allocation wire path: append-style framing into caller-owned
// buffers and a frame reader that reuses one growable buffer per
// connection.
//
// The classic WriteMessage/ReadMessage pair costs two Write syscalls plus a
// fresh header and payload allocation per message. At the prototype's
// rates — 30 fps × players on the fog tier, one update batch per supernode
// per tick on the cloud — that overhead IS the throughput ceiling, so the
// hot paths use this file instead:
//
//	buf = buf[:0]
//	buf, err = AppendMessage(buf, MsgVideoFrame, frame) // header + payload
//	conn.Write(buf)                                     // one syscall
//
// and on the receive side:
//
//	fr := NewFrameReader(conn)
//	typ, payload, err := fr.Next() // payload valid until the next call
//
// Buffer ownership rules (see DESIGN.md §10):
//
//   - AppendTo/AppendFrame/AppendMessage never retain buf; the caller owns
//     it before and after the call.
//   - FrameReader owns its internal buffer; the payload returned by Next
//     aliases it and is valid only until the next Next call. Decoders that
//     keep payload bytes must copy them.
//   - GetBuffer/PutBuffer hand out pooled scratch buffers; a buffer goes
//     back to the pool only after the write that drains it has returned.
package protocol

import (
	"encoding/binary"
	"io"
	"sync"
)

// HeaderLen is the length-prefix frame header size in bytes
// (uint32 payload length + uint8 message type).
const HeaderLen = headerLen

// Appender is a message with an append-style encoder. Every message an
// admitted connection carries implements it as its only encoder, as does
// videocodec.EncodedFrame.
type Appender interface {
	// AppendTo appends the encoded message to buf and returns the
	// extended slice.
	AppendTo(buf []byte) []byte
}

// AppendFrame appends one framed message — 5-byte header plus payload — to
// buf and returns the extended slice. With enough capacity it does not
// allocate, and the result flushes in a single Write.
func AppendFrame(buf []byte, t MsgType, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return buf, ErrTooLarge
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, byte(t))
	return append(buf, payload...), nil
}

// AppendMessage frames a message directly into buf: it reserves the
// header, encodes the payload in place with m.AppendTo, and patches the
// length — no intermediate payload slice at all.
func AppendMessage(buf []byte, t MsgType, m Appender) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, byte(t))
	buf = m.AppendTo(buf)
	n := len(buf) - start - headerLen
	if n > MaxPayload {
		return buf[:start], ErrTooLarge
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// ReadMessageInto reads one framed message, reusing buf's capacity for the
// payload. It returns the payload (aliasing buf when it fits, a freshly
// grown slice otherwise); callers keep the returned slice as next call's
// buf to stay allocation-free:
//
//	typ, buf, err = ReadMessageInto(r, buf)
func ReadMessageInto(r io.Reader, buf []byte) (MsgType, []byte, error) {
	if cap(buf) < headerLen {
		buf = make([]byte, headerLen, 512)
	}
	hdr := buf[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, buf[:0], err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxPayload {
		return 0, buf[:0], ErrTooLarge
	}
	t := MsgType(hdr[4])
	if cap(buf) < n {
		buf = make([]byte, n, grow(cap(buf), n))
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, buf[:0], err
	}
	return t, payload, nil
}

// grow picks the next buffer capacity: at least need, doubling from have
// so repeated slightly-larger messages do not reallocate every time.
func grow(have, need int) int {
	c := have * 2
	if c < 512 {
		c = 512
	}
	if c < need {
		c = need
	}
	if c > MaxPayload {
		c = MaxPayload
	}
	if c < need { // need == MaxPayload edge
		c = need
	}
	return c
}

// FrameReader reads framed messages from one connection, reusing a single
// growable buffer: zero allocations per message in steady state. The
// payload returned by Next is valid only until the next Next call.
type FrameReader struct {
	r   io.Reader
	buf []byte
}

// NewFrameReader wraps r. One FrameReader per connection, one goroutine at
// a time.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next reads one framed message. The returned payload aliases the reader's
// internal buffer: it is overwritten by the next call, so decoders that
// retain bytes must copy them.
func (fr *FrameReader) Next() (MsgType, []byte, error) {
	t, payload, err := ReadMessageInto(fr.r, fr.buf[:0])
	//lint:ignore noretain the reader owns the buffer payload aliases; recycling it here IS the contract
	fr.buf = payload[:0]
	return t, payload, err
}

// --- pooled scratch buffers -------------------------------------------------

// Buffer is a pooled byte slice. The slice lives in B so callers can grow
// it in place (append semantics) while the wrapper keeps Put allocation
// free.
type Buffer struct{ B []byte }

var bufPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 4096)} },
}

// GetBuffer returns a zero-length pooled buffer. The caller owns it until
// PutBuffer; on hot paths the buffer must return to the pool only after
// the Write that flushes it has returned (never while a queued message
// still references it).
func GetBuffer() *Buffer {
	return bufPool.Get().(*Buffer)
}

// PutBuffer returns a buffer to the pool. The caller must not touch b (or
// any slice of b.B) afterwards.
func PutBuffer(b *Buffer) {
	if b == nil {
		return
	}
	b.B = b.B[:0]
	bufPool.Put(b)
}
