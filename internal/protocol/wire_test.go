package protocol

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cloudfog/internal/virtualworld"
)

func testBatch(n int) UpdateBatch {
	batch := UpdateBatch{Tick: 42}
	for i := 0; i < n; i++ {
		d := virtualworld.Delta{
			ID: virtualworld.EntityID(i + 1),
			Entity: virtualworld.Entity{
				ID: virtualworld.EntityID(i + 1), Kind: virtualworld.KindAvatar,
				Owner: i, X: float64(i), Y: float64(2 * i), HP: 100, Version: uint32(i),
			},
		}
		if i%7 == 3 {
			d = virtualworld.Delta{ID: virtualworld.EntityID(i + 1), Removed: true}
		}
		batch.Deltas = append(batch.Deltas, d)
	}
	return batch
}

// TestAppendToMatchesMarshal: an append encoder writes a message the same
// whatever it appends to — onto a used buffer exactly the bytes it
// marshals to on its own, AppendTo(nil) — and leaves what was there intact.
func TestAppendToMatchesMarshal(t *testing.T) {
	for _, d := range networkDecoders {
		a, ok := d.seed.(Appender)
		if !ok {
			continue // a handshake message: Marshal is its one encoder
		}
		prefix := []byte{0xAA, 0xBB}
		out := a.AppendTo(append(make([]byte, 0, 4096), prefix...))
		if !bytes.Equal(out[:2], prefix) || !bytes.Equal(out[2:], a.AppendTo(nil)) {
			t.Errorf("%s: AppendTo onto a prefix\n  got  %x\n  want %x%x", d.name, out, prefix, a.AppendTo(nil))
		}
	}
}

// TestAppendFrameMatchesWriteMessage pins the single-buffer framing to the
// WriteMessage wire format.
func TestAppendFrameMatchesWriteMessage(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7}
	var legacy bytes.Buffer
	if err := WriteMessage(&legacy, MsgAction, payload); err != nil {
		t.Fatal(err)
	}
	framed, err := AppendFrame(nil, MsgAction, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), framed) {
		t.Errorf("AppendFrame differs from WriteMessage:\n  %x\n  %x", legacy.Bytes(), framed)
	}
	// AppendMessage (in-place encode + patched length) produces the same
	// frame as AppendFrame over a pre-marshalled payload.
	batch := testBatch(10)
	viaPayload, err := AppendFrame(nil, MsgUpdateBatch, batch.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	viaMessage, err := AppendMessage(nil, MsgUpdateBatch, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaPayload, viaMessage) {
		t.Error("AppendMessage differs from AppendFrame over Marshal")
	}
}

// TestAppendFrameOversize mirrors WriteMessage's MaxPayload guard.
func TestAppendFrameOversize(t *testing.T) {
	if _, err := AppendFrame(nil, MsgAction, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize AppendFrame err = %v", err)
	}
	buf := []byte{0xEE}
	out, err := AppendMessage(buf, MsgVideoFrame, oversizeAppender{})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize AppendMessage err = %v", err)
	}
	if len(out) != 1 || out[0] != 0xEE {
		t.Errorf("oversize AppendMessage did not restore buf: %x", out)
	}
}

type oversizeAppender struct{}

func (oversizeAppender) AppendTo(buf []byte) []byte {
	return append(buf, make([]byte, MaxPayload+1)...)
}

// TestFrameReaderRoundTrip drains a multi-message stream through the
// reusable-buffer reader and checks it against ReadMessage.
func TestFrameReaderRoundTrip(t *testing.T) {
	batch := testBatch(30)
	var stream []byte
	var err error
	msgs := []struct {
		typ     MsgType
		payload []byte
	}{
		{MsgUpdateBatch, batch.AppendTo(nil)},
		{MsgHeartbeat, Heartbeat{Seq: 1}.AppendTo(nil)},
		{MsgBye, nil},
		{MsgUpdateBatch, testBatch(3).AppendTo(nil)},
	}
	for _, m := range msgs {
		if stream, err = AppendFrame(stream, m.typ, m.payload); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(stream))
	for i, want := range msgs {
		typ, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if typ != want.typ || !bytes.Equal(payload, want.payload) {
			t.Fatalf("message %d: got %v (%d bytes), want %v (%d bytes)",
				i, typ, len(payload), want.typ, len(want.payload))
		}
	}
	if _, _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("post-stream Next err = %v", err)
	}
}

// TestFrameReaderHostileLength mirrors ReadMessage's MaxPayload guard.
func TestFrameReaderHostileLength(t *testing.T) {
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgAction)}
	fr := NewFrameReader(bytes.NewReader(hostile))
	if _, _, err := fr.Next(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("hostile length err = %v", err)
	}
}

// TestFrameReaderTruncated distinguishes a clean EOF (between frames) from
// a truncated payload.
func TestFrameReaderTruncated(t *testing.T) {
	stream, _ := AppendFrame(nil, MsgAction, []byte{1, 2, 3})
	fr := NewFrameReader(bytes.NewReader(stream[:len(stream)-1]))
	if _, _, err := fr.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload err = %v", err)
	}
}

// repeatStream replays one encoded stream forever — an infinite message
// source with zero per-read allocation, for steady-state measurements.
type repeatStream struct {
	data []byte
	off  int
}

func (rs *repeatStream) Read(p []byte) (int, error) {
	if rs.off == len(rs.data) {
		rs.off = 0
	}
	n := copy(p, rs.data[rs.off:])
	rs.off += n
	return n, nil
}

// TestFrameReaderSteadyStateAllocs pins the reader's zero-allocation
// steady state: after the internal buffer has grown to fit the largest
// message, Next must not allocate.
func TestFrameReaderSteadyStateAllocs(t *testing.T) {
	stream, err := AppendFrame(nil, MsgUpdateBatch, testBatch(100).AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	stream, err = AppendFrame(stream, MsgHeartbeat, Heartbeat{Seq: 5}.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&repeatStream{data: stream})
	// Warm up: grow the buffer to the stream's high-water mark.
	for i := 0; i < 4; i++ {
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("FrameReader.Next steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestAppendEncoderAllocs pins the append encoders' zero-allocation steady
// state: encoding and framing into a buffer with capacity must not
// allocate.
func TestAppendEncoderAllocs(t *testing.T) {
	// Pass messages by pointer: boxing a struct value into the Appender
	// interface would allocate per call; a pointer to an already-escaped
	// value does not.
	batch := testBatch(100)
	buf := make([]byte, 0, len(batch.AppendTo(nil))+HeaderLen)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendMessage(buf[:0], MsgUpdateBatch, &batch)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendMessage steady state: %.1f allocs/op, want 0", allocs)
	}

	hb := HeartbeatAck{Seq: 1, ReplicaTick: 2, Attached: 3}
	small := make([]byte, 0, 64)
	allocs = testing.AllocsPerRun(100, func() {
		var err error
		small, err = AppendMessage(small[:0], MsgHeartbeatAck, &hb)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendMessage(heartbeat-ack) steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecodeUpdateBatchSteadyStateAllocs pins the reusable decode: with a
// warm Deltas slice, DecodeUpdateBatch must not allocate.
func TestDecodeUpdateBatchSteadyStateAllocs(t *testing.T) {
	payload := testBatch(100).AppendTo(nil)
	var m UpdateBatch
	if err := DecodeUpdateBatch(payload, &m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeUpdateBatch(payload, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeUpdateBatch steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestBufferPool exercises the pooled scratch buffers' contract.
func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	if len(b.B) != 0 {
		t.Errorf("fresh buffer has length %d", len(b.B))
	}
	b.B = append(b.B, 1, 2, 3)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(b2.B) != 0 {
		t.Errorf("recycled buffer has length %d", len(b2.B))
	}
	PutBuffer(b2)
	PutBuffer(nil) // must not panic
}

// FuzzReadMessage fuzzes the framing round-trip: any stream the reader
// accepts must re-encode to the identical bytes, and the reader must agree
// with the legacy ReadMessage.
func FuzzReadMessage(f *testing.F) {
	seed1, _ := AppendFrame(nil, MsgUpdateBatch, testBatch(5).AppendTo(nil))
	seed2, _ := AppendFrame(nil, MsgBye, nil)
	seed2, _ = AppendFrame(seed2, MsgHeartbeat, []byte{0, 0, 0, 9})
	f.Add(seed1)
	f.Add(seed2)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 2, 5, 0xAB}) // truncated payload
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		legacy := bytes.NewReader(data)
		var reencoded []byte
		for {
			typ, payload, err := fr.Next()
			ltyp, lpayload, lerr := ReadMessage(legacy)
			if (err == nil) != (lerr == nil) {
				t.Fatalf("FrameReader err %v vs ReadMessage err %v", err, lerr)
			}
			if err != nil {
				break
			}
			if typ != ltyp || !bytes.Equal(payload, lpayload) {
				t.Fatalf("FrameReader (%v, %d bytes) disagrees with ReadMessage (%v, %d bytes)",
					typ, len(payload), ltyp, len(lpayload))
			}
			reencoded, err = AppendFrame(reencoded, typ, payload)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		if len(reencoded) > 0 && !bytes.Equal(reencoded, data[:len(reencoded)]) {
			t.Fatalf("re-encoded stream differs from input prefix")
		}
	})
}
