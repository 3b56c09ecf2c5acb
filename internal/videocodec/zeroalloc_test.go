package videocodec

import (
	"bytes"
	"testing"

	"cloudfog/internal/render"
	"cloudfog/internal/virtualworld"
)

// testFrames renders a deterministic moving-avatar sequence at the given
// quality level — shared input for the wire and allocation tests.
func testFrames(t testing.TB, level, n int) []*render.Frame {
	t.Helper()
	w := virtualworld.New(400, 400)
	w.SpawnAvatar(1, 100, 100)
	r := render.NewRenderer(render.ResolutionForLevel(level))
	frames := make([]*render.Frame, 0, n)
	for i := 0; i < n; i++ {
		w.Step([]virtualworld.Action{{Player: 1, Kind: virtualworld.ActMove, TargetX: 300, TargetY: 300}})
		s := w.Snapshot()
		f := render.NewFrame(r.Resolution())
		r.RenderInto(s, render.ViewportFor(s, 1), f)
		frames = append(frames, f)
	}
	return frames
}

// TestFrameWireRoundTripInto pins the alias-parsing wire path: AppendTo
// then UnmarshalFrameInto must reproduce the frame, with Data aliasing the
// input buffer (no copy).
func TestFrameWireRoundTripInto(t *testing.T) {
	frames := testFrames(t, 2, 3)
	enc := NewEncoder(400)
	src := encode(enc, frames[1])
	buf := src.AppendTo(nil)
	if len(buf) != src.EncodedSize() {
		t.Fatalf("EncodedSize %d != marshaled length %d", src.EncodedSize(), len(buf))
	}
	var got EncodedFrame
	if err := UnmarshalFrameInto(buf, &got); err != nil {
		t.Fatalf("UnmarshalFrameInto: %v", err)
	}
	if got.Type != src.Type || got.Quant != src.Quant || got.Tick != src.Tick ||
		got.Width != src.Width || got.Height != src.Height || !bytes.Equal(got.Data, src.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, src)
	}
	if len(got.Data) > 0 && &got.Data[0] != &buf[frameHeaderBytes] {
		t.Fatal("UnmarshalFrameInto copied Data; it must alias buf")
	}
}

// TestEncodeIntoSteadyStateAllocs locks in the tentpole property: after
// warm-up, the render→encode hot path allocates nothing per frame.
func TestEncodeIntoSteadyStateAllocs(t *testing.T) {
	frames := testFrames(t, 3, 32)
	enc := NewEncoder(600)
	var ef EncodedFrame
	for _, f := range frames { // warm-up: grow scratch + Data to steady state
		enc.EncodeInto(f, &ef)
	}
	i := 0
	if n := testing.AllocsPerRun(64, func() {
		enc.EncodeInto(frames[i%len(frames)], &ef)
		i++
	}); n != 0 {
		t.Fatalf("EncodeInto allocates %.1f/op in steady state, want 0", n)
	}
}

// TestDecodeIntoSteadyStateAllocs: same property for the thin-client side,
// including the alias-parsing UnmarshalFrameInto step.
func TestDecodeIntoSteadyStateAllocs(t *testing.T) {
	frames := testFrames(t, 3, 32)
	enc := NewEncoder(600)
	wire := make([][]byte, len(frames))
	for i, f := range frames {
		wire[i] = encode(enc, f).Marshal()
	}
	var dec Decoder
	var ef EncodedFrame
	var out render.Frame
	decodeOne := func(buf []byte) {
		if err := UnmarshalFrameInto(buf, &ef); err != nil {
			t.Fatalf("UnmarshalFrameInto: %v", err)
		}
		if err := dec.DecodeInto(&ef, &out); err != nil {
			t.Fatalf("DecodeInto: %v", err)
		}
	}
	for _, buf := range wire { // warm-up
		decodeOne(buf)
	}
	i := 0
	if n := testing.AllocsPerRun(64, func() {
		decodeOne(wire[i%len(wire)])
		i++
	}); n != 0 {
		t.Fatalf("decode path allocates %.1f/op in steady state, want 0", n)
	}
}

// BenchmarkEncodeInto720p measures the per-frame cost of encoding the top
// quality rung: zero allocations.
func BenchmarkEncodeInto720p(b *testing.B) {
	frames := testFrames(b, 5, 32)
	enc := NewEncoder(1800)
	var ef EncodedFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeInto(frames[i%len(frames)], &ef)
	}
}

// BenchmarkDecodeInto720p measures the client-side decode cost.
func BenchmarkDecodeInto720p(b *testing.B) {
	frames := testFrames(b, 5, 32)
	enc := NewEncoder(1800)
	encoded := make([]*EncodedFrame, len(frames))
	for i, f := range frames {
		encoded[i] = encode(enc, f)
	}
	var dec Decoder
	var out render.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeInto(encoded[i%len(encoded)], &out); err != nil {
			b.Fatal(err)
		}
	}
}
