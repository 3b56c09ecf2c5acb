package videocodec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"cloudfog/internal/render"
	"cloudfog/internal/rng"
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
	// Any bytes, run-lengthed by the encoder's writer as one I-frame row,
	// are the pairs the byte-by-byte oracle cuts and decode to themselves.
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		w := runWriter{}
		w.appendRuns(data)
		w.flush()
		ef := &EncodedFrame{Type: IFrame, Width: len(data), Height: 1, Data: w.buf}
		if !bytes.Equal(ef.Data, rleAppend(nil, data)) {
			return false
		}
		var dec Decoder
		got, err := decode(&dec, ef)
		return err == nil && bytes.Equal(got.Pix, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// quick's random bytes hardly ever repeat: long runs, on and off the
	// 8-byte stride and the 255 cut, are what the writer is for.
	for _, n := range []int{1, 7, 8, 9, 254, 255, 256, 509, 510, 511, 1021} {
		data := append(bytes.Repeat([]byte{3}, n), bytes.Repeat([]byte{0}, n)...)
		data = append(data, 3)
		if !f(data) || !f(data[1:]) || !f(data[:len(data)-1]) {
			t.Errorf("runs of %d: not the oracle's pairs, or not decoded back", n)
		}
	}
}

// TestDirtySpansCoverExactlyTheTiles checks the encoder's reading of a
// damage bitset pixel by pixel: spans in order, merged wherever they touch
// (across a row end too), covering the set tiles and nothing else — for
// sizes with a short last tile row and column, and for the patterns the
// merging could get wrong: both edge columns, whole rows, everything.
func TestDirtySpansCoverExactlyTheTiles(t *testing.T) {
	const ts = render.TileSize
	r := rng.New(7)
	for _, size := range [][2]int{{64, 48}, {100, 70}, {16, 16}, {15, 33}, {288, 216}} {
		w, h := size[0], size[1]
		tw, th := (w+ts-1)/ts, (h+ts-1)/ts
		patterns := map[string]func(tx, ty int) bool{
			"none":       func(tx, ty int) bool { return false },
			"all":        func(tx, ty int) bool { return true },
			"edges":      func(tx, ty int) bool { return tx == 0 || tx == tw-1 },
			"rows":       func(tx, ty int) bool { return ty%2 == 1 },
			"last tile":  func(tx, ty int) bool { return tx == tw-1 && ty == th-1 },
			"random 1/4": func(tx, ty int) bool { return r.Intn(4) == 0 },
			"random 3/4": func(tx, ty int) bool { return r.Intn(4) != 0 },
		}
		for name, set := range patterns {
			tiles := make([]uint64, (tw*th+63)/64)
			want := make([]bool, w*h)
			for ty := 0; ty < th; ty++ {
				for tx := 0; tx < tw; tx++ {
					if !set(tx, ty) {
						continue
					}
					tiles[(ty*tw+tx)/64] |= 1 << ((ty*tw + tx) % 64)
					for y := ty * ts; y < min((ty+1)*ts, h); y++ {
						for x := tx * ts; x < min((tx+1)*ts, w); x++ {
							want[y*w+x] = true
						}
					}
				}
			}
			var e Encoder
			e.dirtySpans(tiles, w, h)
			got := make([]bool, w*h)
			end := -1
			for _, s := range e.spans {
				if s.off <= end || s.end <= s.off || s.end > w*h {
					t.Fatalf("%dx%d %s: span %+v after one ending at %d", w, h, name, s, end)
				}
				end = s.end
				for i := s.off; i < s.end; i++ {
					got[i] = true
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%dx%d %s: pixel (%d,%d) covered = %v, want %v", w, h, name, i%w, i/w, got[i], want[i])
				}
			}
			if name == "all" && len(e.spans) != 1 {
				t.Errorf("%dx%d: every tile set makes %d spans, want the one", w, h, len(e.spans))
			}
		}
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
