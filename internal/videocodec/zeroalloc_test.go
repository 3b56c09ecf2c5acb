package videocodec

import (
	"bytes"
	"testing"

	"cloudfog/internal/render"
	"cloudfog/internal/virtualworld"
)

// session is the product's shape — frameStream.sendFrame on the fog, the
// decode loop on the player: a moving-avatar scene rendered into ONE
// reused Frame, which one Encoder consumes, and one Decoder after it. Only
// this shape reaches the damage path: a frame rendered fresh is, rightly,
// dirty all over.
type session struct {
	views []virtualworld.Snapshot
	rend  *render.Renderer
	frame *render.Frame
	enc   *Encoder
	ef    EncodedFrame
	dec   Decoder
	out   render.Frame
	next  int
}

func newSession(level int, kbps float64) *session {
	w := virtualworld.New(400, 400)
	w.SpawnAvatar(1, 100, 100)
	w.SpawnNPC(140, 120)
	s := &session{rend: render.NewRenderer(render.ResolutionForLevel(level)), enc: NewEncoder(kbps)}
	s.frame = render.NewFrame(s.rend.Resolution())
	for i := 0; i < 32; i++ {
		w.Step([]virtualworld.Action{{Player: 1, Kind: virtualworld.ActMove, TargetX: 300, TargetY: 300}})
		s.views = append(s.views, w.Snapshot())
	}
	return s
}

// render draws the next view of the scene (they repeat) into the frame.
func (s *session) render() {
	v := s.views[s.next%len(s.views)]
	s.next++
	s.rend.RenderInto(v, render.ViewportFor(v, 1), s.frame)
}

// encodeNext renders and encodes the next frame into s.ef.
func (s *session) encodeNext() {
	s.render()
	s.enc.EncodeInto(s.frame, &s.ef)
}

// wire returns n consecutive frames of the session as the player receives
// them.
func (s *session) wire(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		s.encodeNext()
		out[i] = s.ef.Marshal()
	}
	return out
}

// decodeWire is the player's receive path for one frame.
func (s *session) decodeWire(tb testing.TB, buf []byte) {
	var rx EncodedFrame
	if err := UnmarshalFrameInto(buf, &rx); err != nil {
		tb.Fatalf("UnmarshalFrameInto: %v", err)
	}
	if err := s.dec.DecodeInto(&rx, &s.out); err != nil {
		tb.Fatalf("DecodeInto: %v", err)
	}
}

// TestFrameWireRoundTripInto pins the alias-parsing wire path: AppendTo
// then UnmarshalFrameInto must reproduce the frame, with Data aliasing the
// input buffer (no copy).
func TestFrameWireRoundTripInto(t *testing.T) {
	s := newSession(2, 400)
	s.encodeNext()
	s.encodeNext()
	src := &s.ef
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
// warm-up, the render→encode hot path allocates nothing per frame — and it
// is the damage path that is measured, not the all-dirty one.
func TestEncodeIntoSteadyStateAllocs(t *testing.T) {
	s := newSession(3, 600)
	for range s.views { // warm-up: grow the reference, the spans and Data to steady state
		s.encodeNext()
	}
	full := s.enc.FullEncodes()
	if n := testing.AllocsPerRun(64, s.encodeNext); n != 0 {
		t.Fatalf("EncodeInto allocates %.1f/op in steady state, want 0", n)
	}
	if got := s.enc.FullEncodes() - full; got != 0 {
		t.Fatalf("%d measured frames were encoded with every tile dirty: the gate missed the product's path", got)
	}
}

// TestDecodeIntoSteadyStateAllocs: same property for the thin-client side,
// including the alias-parsing UnmarshalFrameInto step.
func TestDecodeIntoSteadyStateAllocs(t *testing.T) {
	s := newSession(3, 600)
	wire := s.wire(2 * DefaultGOP) // ends where it starts: before an I-frame
	for _, buf := range wire {     // warm-up
		s.decodeWire(t, buf)
	}
	i := 0
	if n := testing.AllocsPerRun(64, func() {
		s.decodeWire(t, wire[i%len(wire)])
		i++
	}); n != 0 {
		t.Fatalf("decode path allocates %.1f/op in steady state, want 0", n)
	}
}

// BenchmarkEncodeInto720p measures the per-frame cost of encoding the top
// quality rung in the three shapes a session meets: steady (one reused
// frame, the cost is what moved), keyframe (the same, every frame forced
// to an I-frame) and alldirty (a frame with no damage to offer: every
// pixel, as every frame cost before damage tracking). Zero allocations.
func BenchmarkEncodeInto720p(b *testing.B) {
	shapes := []struct {
		name string
		next func(s *session) *render.Frame // the frame to encode, drawn while the clock is stopped
	}{
		{"steady", func(s *session) *render.Frame { s.render(); return s.frame }},
		{"keyframe", func(s *session) *render.Frame { s.render(); s.enc.ForceKeyframe(); return s.frame }},
		{"alldirty", func(s *session) *render.Frame {
			s.render()
			return &render.Frame{Width: s.frame.Width, Height: s.frame.Height, Pix: s.frame.Pix, Tick: s.frame.Tick}
		}},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			s := newSession(5, 1800)
			s.encodeNext()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := shape.next(s)
				b.StartTimer()
				s.enc.EncodeInto(f, &s.ef)
			}
		})
	}
}

// BenchmarkDecodeInto720p measures the client-side decode cost.
func BenchmarkDecodeInto720p(b *testing.B) {
	s := newSession(5, 1800)
	wire := s.wire(2 * DefaultGOP)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.decodeWire(b, wire[i%len(wire)])
	}
}
