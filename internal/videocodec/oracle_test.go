package videocodec

import (
	"bytes"
	"errors"
	"testing"

	"cloudfog/internal/game"
	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// oracleEncoder is the encoder as it was before damage tracking, kept
// verbatim as the reference the product is checked against: it quantizes,
// diffs and run-lengths every pixel of every frame, byte by byte, and
// knows nothing of render.Frame's damage.
type oracleEncoder struct {
	GOP        int
	TargetKbps float64

	prev    []byte // previous DECODED (quantized) frame, for P references
	cur     []byte // scratch for the current quantized frame (swapped with prev)
	diff    []byte // scratch for P-frame deltas
	w, h    int
	count   int
	quant   int
	bitsAcc float64 // rolling bits-per-frame average
}

func newOracleEncoder(targetKbps float64) *oracleEncoder {
	quant := 4
	if targetKbps <= 0 {
		quant = 1
	}
	return &oracleEncoder{GOP: DefaultGOP, TargetKbps: targetKbps, quant: quant}
}

func (e *oracleEncoder) ForceKeyframe() { e.count = 0 }

func oracleQuantize(v byte, q int) byte {
	if q <= 1 {
		return v
	}
	return byte(int(v) / q * q)
}

func (e *oracleEncoder) EncodeInto(f *render.Frame, ef *EncodedFrame) {
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
		cur[i] = oracleQuantize(v, q)
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

func (e *oracleEncoder) adaptQuant(lastBits int) {
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

// rleAppend compresses data with byte-level RLE, appending (count, value)
// pairs to out.
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

// parityRig drives the product the way a video session does — one world,
// one renderer per level, ONE reused Frame, one Encoder, one Decoder —
// with the oracle encoding the same frame beside it.
type parityRig struct {
	t      *testing.T
	r      *rng.Rand
	world  *virtualworld.World
	rend   *render.Renderer
	frame  *render.Frame
	enc    *Encoder
	oracle *oracleEncoder
	dec    Decoder
	ef, of EncodedFrame
	out    render.Frame
	frames int
}

const parityPlayers = 6

func newParityRig(t *testing.T, seed uint64) *parityRig {
	p := &parityRig{t: t, r: rng.New(seed), world: virtualworld.New(400, 400), frame: &render.Frame{}}
	for id := 1; id <= parityPlayers; id++ {
		p.world.SpawnAvatar(id, p.r.Uniform(120, 280), p.r.Uniform(120, 280))
	}
	for i := 0; i < 10; i++ {
		p.world.SpawnNPC(p.r.Uniform(100, 300), p.r.Uniform(100, 300))
	}
	p.setLevel(1 + int(seed%5))
	return p
}

// setLevel changes resolution and target under the running encoders, so
// the size change is theirs to notice (a session would start new ones).
// Level 0 is level 1's target at a size no Table 2 level has: one whose
// last tile column is cut short.
func (p *parityRig) setLevel(level int) {
	res := render.ResolutionForLevel(level)
	if level == 0 {
		level, res = 1, render.Resolution{Width: 333, Height: 200}
	}
	p.rend = render.NewRenderer(res)
	kbps := game.MustQuality(game.QualityLevel(level)).BitrateKbps
	if p.enc == nil {
		p.enc, p.oracle = NewEncoder(kbps), newOracleEncoder(kbps)
	}
	p.enc.TargetKbps, p.oracle.TargetKbps = kbps, kbps
}

// render moves the world one tick — a few avatars walk, one may change
// pose — and draws player 1's view into the one frame.
func (p *parityRig) render() {
	var acts []virtualworld.Action
	for id := 1; id <= parityPlayers; id++ {
		switch p.r.Intn(4) {
		case 0:
			acts = append(acts, virtualworld.Action{Player: id, Kind: virtualworld.ActMove,
				TargetX: p.r.Uniform(0, 400), TargetY: p.r.Uniform(0, 400)})
		case 1:
			acts = append(acts, virtualworld.Action{Player: id, Kind: virtualworld.ActEmote, StateTag: uint8(p.r.Intn(8))})
		}
	}
	p.world.Step(acts)
	s := p.world.Snapshot()
	p.rend.RenderInto(s, render.ViewportFor(s, 1), p.frame)
}

// encode encodes the frame with both encoders, requires the same bytes,
// decodes the product's and requires the oracle's reference.
func (p *parityRig) encode() {
	p.t.Helper()
	p.enc.EncodeInto(p.frame, &p.ef)
	p.oracle.EncodeInto(p.frame, &p.of)
	p.frames++
	if p.ef.Type != p.of.Type || p.ef.Quant != p.of.Quant || p.ef.Width != p.of.Width ||
		p.ef.Height != p.of.Height || p.ef.Tick != p.of.Tick {
		p.t.Fatalf("frame %d: header {type %d quant %d %dx%d tick %d}, oracle {type %d quant %d %dx%d tick %d}", p.frames,
			p.ef.Type, p.ef.Quant, p.ef.Width, p.ef.Height, p.ef.Tick,
			p.of.Type, p.of.Quant, p.of.Width, p.of.Height, p.of.Tick)
	}
	if !bytes.Equal(p.ef.Data, p.of.Data) {
		p.t.Fatalf("frame %d (type %d, quant %d, %dx%d): %d payload bytes differ from the oracle's %d",
			p.frames, p.ef.Type, p.ef.Quant, p.ef.Width, p.ef.Height, len(p.ef.Data), len(p.of.Data))
	}
	if err := p.dec.DecodeInto(&p.ef, &p.out); err != nil {
		p.t.Fatalf("frame %d: decode: %v", p.frames, err)
	}
	if !bytes.Equal(p.out.Pix, p.oracle.prev) {
		p.t.Fatalf("frame %d: decoded pixels differ from the oracle's reference", p.frames)
	}
}

// FuzzEncodeParity is the proof that damage tracking changed no byte: the
// product, fed by RenderInto through one reused Frame as a session feeds
// it, against the full-frame oracle. Each script byte is one step — most
// render and encode a frame; the others render without encoding (damage
// must accumulate), force a keyframe, switch to another Table 2 level, or
// drop the target far enough to move the quantization step.
func FuzzEncodeParity(f *testing.F) {
	steady := bytes.Repeat([]byte{0}, 40)
	f.Add(uint64(1), steady)
	f.Add(uint64(4), steady) // 1280x720
	f.Add(uint64(2), []byte{0, 0, 5, 0, 5, 5, 5, 0, 0, 6, 0, 0, 5, 6, 0, 0})
	f.Add(uint64(3), []byte{0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(5), []byte{0, 0, 12, 0, 0, 20, 0, 5, 0, 28, 0, 0, 36, 6, 0, 4, 5, 0, 0, 6, 0, 15, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		p := newParityRig(t, seed)
		p.render()
		p.encode()
		p.runScript(script)
	})
}

// runScript plays a fuzz script: see FuzzEncodeParity.
func (p *parityRig) runScript(script []byte) {
	p.t.Helper()
	for _, op := range script {
		switch op % 8 {
		case 4: // a level switch; the frame and the encoders stay
			p.setLevel(int(op/8) % 6)
		case 5: // a frame rendered and never encoded
			p.render()
			continue
		case 6:
			p.enc.ForceKeyframe()
			p.oracle.ForceKeyframe()
		case 7: // a target the picture cannot meet, or a level's own again
			kbps := game.MustQuality(game.QualityLevel(1 + int(op/8)%5)).BitrateKbps
			if op/8%2 == 1 {
				kbps = 5
			}
			p.enc.TargetKbps, p.oracle.TargetKbps = kbps, kbps
		}
		p.render()
		p.encode()
	}
}

// TestEncodeParityUsesDamage guards the parity fuzz against proving
// nothing: in its steady state the product must actually be on the damage
// path, which shows as no full encodes while the oracle's bytes still
// match.
func TestEncodeParityUsesDamage(t *testing.T) {
	p := newParityRig(t, 4)
	for i := 0; i < 10; i++ { // let the step settle
		p.render()
		p.encode()
	}
	settled := p.enc.FullEncodes()
	for i := 0; i < 40; i++ { // crosses a GOP boundary: I-frames use damage too
		p.render()
		p.encode()
	}
	if got := p.enc.FullEncodes(); got != settled {
		t.Errorf("%d of 40 steady frames were encoded with every tile dirty", got-settled)
	}
	// A frame the renderer never drew has no damage to offer.
	hand := render.NewFrame(render.Resolution{Width: p.frame.Width, Height: p.frame.Height})
	copy(hand.Pix, p.frame.Pix)
	hand.Tick = p.frame.Tick
	for i := 0; i < 2; i++ {
		hand.Pix[i*1000] ^= 0x40
		p.frame = hand
		p.encode()
	}
	if got := p.enc.FullEncodes(); got != settled+2 {
		t.Errorf("hand-built frames: %d full encodes, want 2", got-settled)
	}
}

// TestDecodeRejectsBeforeWriting pins the decoder's safety now that it
// decodes in place: whatever is wrong with a frame is found before the
// reference is written, so the stream continues from the last good frame
// as if the bad one had never arrived.
func TestDecodeRejectsBeforeWriting(t *testing.T) {
	p := newParityRig(t, 2)
	p.render()
	p.encode() // good I
	p.render()
	p.encode() // good P
	want := append([]byte(nil), p.out.Pix...)

	p.render()
	p.enc.EncodeInto(p.frame, &p.ef)
	p.oracle.EncodeInto(p.frame, &p.of)
	good := append([]byte(nil), p.ef.Data...)
	if len(good) < 6 {
		t.Fatalf("the good P-frame is %d bytes: nothing moved, nothing for a bad copy of it to damage", len(good))
	}
	lastRun := good[len(good)-2]
	corrupt := map[string]EncodedFrame{
		"truncated":    {Type: PFrame, Data: good[:len(good)-2]},
		"odd length":   {Type: PFrame, Data: good[:len(good)-1]},
		"overflow":     {Type: PFrame, Data: append(append([]byte(nil), good...), 1, 9)},
		"zero run":     {Type: PFrame, Data: append(append([]byte(nil), good[:len(good)-2]...), 0, 9, lastRun, 0)},
		"unknown type": {Type: 9, Data: good},
		"other size":   {Type: PFrame, Width: p.ef.Height, Height: p.ef.Width, Data: good},
	}
	for name, bad := range corrupt {
		if bad.Width == 0 {
			bad.Width, bad.Height = p.ef.Width, p.ef.Height
		}
		wantErr := ErrCorruptStream
		if name == "other size" {
			wantErr = ErrNoReference
		}
		if err := p.dec.DecodeInto(&bad, &p.out); !errors.Is(err, wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
		if !bytes.Equal(p.out.Pix, want) {
			t.Fatalf("%s: the rejected frame changed the reference", name)
		}
	}

	// The good P-frame the corrupt ones stood in for, then one more.
	if err := p.dec.DecodeInto(&p.ef, &p.out); err != nil {
		t.Fatalf("good P after corrupt P: %v", err)
	}
	if !bytes.Equal(p.out.Pix, p.oracle.prev) {
		t.Fatal("good P after corrupt P: decoded pixels differ from the oracle's reference")
	}
	p.render()
	p.encode()
}
