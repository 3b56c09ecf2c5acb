package videocodec

import (
	"errors"
	"testing"
	"testing/quick"

	"cloudfog/internal/render"
	"cloudfog/internal/virtualworld"
)

// encode and decode are the tests' owning forms of EncodeInto and
// DecodeInto: a fresh EncodedFrame per call, and a decoded frame whose
// pixels are copied out of the decoder's reused memory.
func encode(e *Encoder, f *render.Frame) *EncodedFrame {
	ef := &EncodedFrame{}
	e.EncodeInto(f, ef)
	return ef
}

func decode(d *Decoder, ef *EncodedFrame) (*render.Frame, error) {
	f := &render.Frame{}
	if err := d.DecodeInto(ef, f); err != nil {
		return nil, err
	}
	f.Pix = append([]byte(nil), f.Pix...)
	return f, nil
}

// frameSequence renders a short clip of a moving avatar.
func frameSequence(t *testing.T, n int, level int) []*render.Frame {
	t.Helper()
	w := virtualworld.New(400, 400)
	w.SpawnAvatar(1, 100, 100)
	w.SpawnNPC(140, 120)
	r := render.NewRenderer(render.ResolutionForLevel(level))
	frames := make([]*render.Frame, 0, n)
	for i := 0; i < n; i++ {
		w.Step([]virtualworld.Action{{
			Player: 1, Kind: virtualworld.ActMove, TargetX: 300, TargetY: 300,
		}})
		s := w.Snapshot()
		f := render.NewFrame(r.Resolution())
		r.RenderInto(s, render.ViewportFor(s, 1), f)
		frames = append(frames, f)
	}
	return frames
}

func TestRoundTripLossless(t *testing.T) {
	// With rate control disabled (quant pinned to 1) the codec is
	// lossless: decode(encode(f)) == f for every frame.
	frames := frameSequence(t, 10, 2)
	enc := NewEncoder(0) // no rate control => quant 1
	var dec Decoder
	for i, f := range frames {
		ef := encode(enc, f)
		got, err := decode(&dec, ef)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !got.Equal(f) {
			t.Fatalf("frame %d not lossless (type %d)", i, ef.Type)
		}
		if got.Tick != f.Tick {
			t.Errorf("tick lost: %d vs %d", got.Tick, f.Tick)
		}
	}
}

func TestRoundTripQuantizedConsistent(t *testing.T) {
	// With quantization, the decoder must still reconstruct exactly what
	// the encoder's reference holds (encoder/decoder stay in lockstep),
	// even if that differs from the source frame.
	frames := frameSequence(t, 40, 1)
	enc := NewEncoder(300)
	var dec Decoder
	var prev *render.Frame
	for i, f := range frames {
		ef := encode(enc, f)
		got, err := decode(&dec, ef)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if prev != nil && got.Width != prev.Width {
			t.Fatal("dimensions drifted")
		}
		prev = got
	}
}

func TestGOPStructure(t *testing.T) {
	frames := frameSequence(t, 70, 1)
	enc := NewEncoder(0)
	enc.GOP = 30
	for i, f := range frames {
		ef := encode(enc, f)
		wantI := i%30 == 0
		if (ef.Type == IFrame) != wantI {
			t.Fatalf("frame %d type %d, want I=%v", i, ef.Type, wantI)
		}
	}
}

func TestPFramesSmallerThanIFrames(t *testing.T) {
	frames := frameSequence(t, 30, 2)
	enc := NewEncoder(0)
	enc.GOP = 30
	iBits := encode(enc, frames[0]).SizeBits()
	pTotal := 0
	for _, f := range frames[1:] {
		pTotal += encode(enc, f).SizeBits()
	}
	pMean := pTotal / (len(frames) - 1)
	if pMean >= iBits {
		t.Errorf("inter-frame compression ineffective: P mean %d >= I %d", pMean, iBits)
	}
}

func TestRateControlConverges(t *testing.T) {
	// The encoder must steer its output toward the target bitrate.
	target := 500.0 // kbps
	frames := frameSequence(t, 120, 3)
	enc := NewEncoder(target)
	var bits int
	for _, f := range frames[60:] { // after warm-up
		bits += encode(enc, f).SizeBits()
	}
	// 60 frames at 30 fps = 2 seconds.
	kbps := float64(bits) / 2 / 1000
	if kbps > 4*target {
		t.Errorf("rate control failed: %v kbps vs target %v", kbps, target)
	}
}

func TestLowerTargetCoarserQuant(t *testing.T) {
	framesA := frameSequence(t, 60, 3)
	framesB := frameSequence(t, 60, 3)
	encHigh := NewEncoder(1800)
	encLow := NewEncoder(100)
	for i := range framesA {
		encode(encHigh, framesA[i])
		encode(encLow, framesB[i])
	}
	if encLow.quant <= encHigh.quant {
		t.Errorf("low-rate quant %d not coarser than high-rate %d",
			encLow.quant, encHigh.quant)
	}
}

func TestDecodePFrameWithoutReference(t *testing.T) {
	frames := frameSequence(t, 2, 1)
	enc := NewEncoder(0)
	encode(enc, frames[0])      // I
	p := encode(enc, frames[1]) // P
	var freshDecoder Decoder    // never saw the I frame
	if _, err := decode(&freshDecoder, p); !errors.Is(err, ErrNoReference) {
		t.Errorf("err = %v, want ErrNoReference", err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	var dec Decoder
	if _, err := decode(&dec, &EncodedFrame{Type: IFrame, Width: 0, Height: 4}); err == nil {
		t.Error("bad dimensions accepted")
	}
	if _, err := decode(&dec, &EncodedFrame{Type: IFrame, Width: 2, Height: 2, Data: []byte{1}}); err == nil {
		t.Error("odd RLE accepted")
	}
	if _, err := decode(&dec, &EncodedFrame{Type: IFrame, Width: 2, Height: 2, Data: []byte{9, 1}}); err == nil {
		t.Error("overflowing RLE accepted")
	}
	if _, err := decode(&dec, &EncodedFrame{Type: IFrame, Width: 2, Height: 2, Data: []byte{2, 1}}); err == nil {
		t.Error("underflowing RLE accepted")
	}
	if _, err := decode(&dec, &EncodedFrame{Type: 77, Width: 2, Height: 2, Data: []byte{4, 0}}); err == nil {
		t.Error("unknown frame type accepted")
	}
}

func TestRLERoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		enc := rleAppend(nil, data)
		dec, err := rleDecodeInto(nil, enc, len(data))
		if err != nil {
			return false
		}
		if len(dec) != len(data) {
			return false
		}
		for i := range data {
			if dec[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	frames := frameSequence(t, 3, 1)
	enc := NewEncoder(800)
	for _, f := range frames {
		ef := encode(enc, f)
		buf := ef.Marshal()
		var got EncodedFrame
		if err := UnmarshalFrameInto(buf, &got); err != nil {
			t.Fatal(err)
		}
		if got.Type != ef.Type || got.Width != ef.Width || got.Height != ef.Height ||
			got.Quant != ef.Quant || got.Tick != ef.Tick || len(got.Data) != len(ef.Data) {
			t.Fatalf("header mismatch: %+v vs %+v", got, ef)
		}
		for i := range ef.Data {
			if got.Data[i] != ef.Data[i] {
				t.Fatal("payload mismatch")
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var ef EncodedFrame
	if err := UnmarshalFrameInto([]byte{1, 2, 3}, &ef); err == nil {
		t.Error("short header accepted")
	}
	frames := frameSequence(t, 1, 1)
	buf := encode(NewEncoder(0), frames[0]).Marshal()
	if err := UnmarshalFrameInto(buf[:len(buf)-1], &ef); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestSizeBitsMatchesWire(t *testing.T) {
	frames := frameSequence(t, 1, 1)
	ef := encode(NewEncoder(0), frames[0])
	if ef.SizeBits() != len(ef.Marshal())*8 {
		t.Errorf("SizeBits %d != wire bits %d", ef.SizeBits(), len(ef.Marshal())*8)
	}
}
