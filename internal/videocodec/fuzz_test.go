package videocodec

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"cloudfog/internal/render"
)

// hostileFrame is an 18-byte serialized frame — a header and no payload —
// claiming 0xFFFF×0xFFFF pixels. On the datagram path these bytes arrive
// raw from a supernode, a contributed machine the player has no reason to
// trust.
var hostileFrame = (&EncodedFrame{Type: IFrame, Quant: 1, Width: 0xFFFF, Height: 0xFFFF}).Marshal()

// TestDecodeHostileDimensions pins the decoder's size bound: a header
// whose dimensions its payload cannot fill is rejected before anything is
// allocated for it (unchecked, this one asks for 4 GiB).
func TestDecodeHostileDimensions(t *testing.T) {
	if len(hostileFrame) != frameHeaderBytes {
		t.Fatalf("hostile frame is %d bytes, want %d", len(hostileFrame), frameHeaderBytes)
	}
	var (
		ef   EncodedFrame
		dec  Decoder
		f    render.Frame
		m, n runtime.MemStats
	)
	runtime.ReadMemStats(&m)
	if err := UnmarshalFrameInto(hostileFrame, &ef); err != nil {
		t.Fatalf("header did not parse: %v", err)
	}
	err := dec.DecodeInto(&ef, &f)
	runtime.ReadMemStats(&n)
	if !errors.Is(err, ErrCorruptStream) {
		t.Errorf("err = %v, want ErrCorruptStream", err)
	}
	if got := n.TotalAlloc - m.TotalAlloc; got >= 1024 {
		t.Errorf("rejecting the frame allocated %d bytes, want < 1 KiB", got)
	}
	// The bound is exact: one (count, value) pair fills at most 255 pixels.
	full := &EncodedFrame{Type: IFrame, Width: 255, Height: 2, Data: []byte{255, 7, 255, 7}}
	if err := dec.DecodeInto(full, &f); err != nil {
		t.Errorf("255x2 frame from two full runs rejected: %v", err)
	}
	full.Height = 3
	if err := dec.DecodeInto(full, &f); !errors.Is(err, ErrCorruptStream) {
		t.Errorf("255x3 frame from two runs: err = %v, want ErrCorruptStream", err)
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the player's receive path
// — UnmarshalFrameInto, then DecodeInto — twice on one decoder, so the
// second frame meets whatever reference the first left behind. Neither
// call may panic, a frame that is rejected may not change the picture the
// decoder holds, and the decoder may never hold more than 255 bytes of
// buffer per input byte (RLE's worst-case expansion).
func FuzzFrameDecode(f *testing.F) {
	// A valid I/P pair, small enough (16×12) for mutation and
	// minimization to get through it quickly.
	pic := render.NewFrame(render.Resolution{Width: 16, Height: 12})
	for i := range pic.Pix {
		pic.Pix[i] = byte(i / 24 * 40)
	}
	enc := NewEncoder(0)
	iFrame := encode(enc, pic).Marshal()
	pic.Pix[100] += 9
	pFrame := encode(enc, pic).Marshal()
	f.Add(hostileFrame, []byte(nil))
	f.Add(iFrame, pFrame)
	f.Add(pFrame, iFrame)
	// Mid-stream corruption: a P-frame whose last run went missing arrives
	// after a good I-frame, with its leading runs ready to be applied.
	pic.Pix[3] += 5
	torn := encode(enc, pic)
	torn.Data = torn.Data[:len(torn.Data)-2]
	f.Add(iFrame, torn.Marshal())
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var (
			dec Decoder
			ef  EncodedFrame
			out render.Frame
		)
		for _, buf := range [][]byte{a, b} {
			if UnmarshalFrameInto(buf, &ef) != nil {
				continue
			}
			before := append([]byte(nil), dec.ref...)
			if err := dec.DecodeInto(&ef, &out); err == nil && len(out.Pix) != ef.Width*ef.Height {
				t.Fatalf("decoded %d pixels for a %dx%d frame", len(out.Pix), ef.Width, ef.Height)
			} else if err != nil && !bytes.Equal(dec.ref, before) {
				t.Fatalf("a rejected frame (%v) changed the reference", err)
			}
		}
		if held, limit := cap(dec.ref), 255*(len(a)+len(b)); held > limit {
			t.Fatalf("decoder holds %d bytes after %d input bytes (limit %d)", held, len(a)+len(b), limit)
		}
	})
}
