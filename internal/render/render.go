// Package render implements the supernode-side game-video renderer: it
// turns a virtual-world snapshot into per-player video frames based on the
// player's "viewing position and angle" (§3.1). The paper offloads exactly
// this work from thin clients onto supernodes — "rendering game video is
// relatively less hardware demanding than computation and communication in
// MMOG; most modern computers with discrete graphics cards are sufficient".
//
// The renderer is a deliberately simple software rasterizer: a grayscale
// framebuffer with a background gradient and entities drawn as filled
// discs whose intensity encodes kind and health. What matters for the
// CloudFog pipeline is its contract, not its fidelity: frames are
// deterministic in the snapshot and viewport, differ where the world
// changed, and feed the video encoder (internal/videocodec) that produces
// the Table 2 bitrate ladder.
package render

import (
	"fmt"
	"math/bits"

	"cloudfog/internal/virtualworld"
)

// Resolution is a frame size in pixels.
type Resolution struct {
	Width  int
	Height int
}

// ResolutionForLevel maps a Table 2 quality level (1..5) to its frame
// resolution.
func ResolutionForLevel(level int) Resolution {
	switch {
	case level <= 1:
		return Resolution{288, 216}
	case level == 2:
		return Resolution{384, 216}
	case level == 3:
		return Resolution{512, 384}
	case level == 4:
		return Resolution{720, 486}
	default:
		return Resolution{1280, 720}
	}
}

// TileSize is the edge in pixels of the square tiles a Frame tracks damage
// in. The background bands are one tile high, so the background under a
// tile is a single value.
const TileSize = 16

// Frame is one rendered grayscale video frame. The zero Frame and a Frame
// built by literal or NewFrame are valid; their damage is "everything"
// until RenderInto has drawn them.
type Frame struct {
	// Width, Height are the frame dimensions.
	Width, Height int
	// Pix holds Width*Height luminance bytes, row-major. Only RenderInto
	// may write the pixels of a frame whose Damage is to be believed.
	Pix []byte
	// Tick is the world tick the frame depicts.
	Tick uint64

	// Damage state, one bit per tile, row-major: drawn marks the tiles the
	// last RenderInto put sprites on, dirty those any RenderInto wrote
	// since the last ClearDamage (all: every one of them). own is &Pix[0]
	// as RenderInto left it — while it still is, Pix holds that render's
	// output. gen counts ClearDamage calls.
	drawn, dirty []uint64
	own          *byte
	gen          uint64
	all          bool
}

// Damage reports where Pix may differ from what it held when ClearDamage
// returned gen: a bitset of TileSize×TileSize tiles, row-major,
// ⌈Width/TileSize⌉ to a row, valid until the next RenderInto or
// ClearDamage. nil means anywhere — gen is not the latest ClearDamage (0
// never is), RenderInto had to repaint the whole frame, or somebody else
// owns Pix.
func (f *Frame) Damage(gen uint64) []uint64 {
	if gen == 0 || gen != f.gen || f.all || !f.rendered() {
		return nil
	}
	return f.dirty
}

// rendered reports whether Pix is still the buffer RenderInto last drew.
func (f *Frame) rendered() bool { return len(f.Pix) > 0 && f.own == &f.Pix[0] }

// ClearDamage forgets the damage recorded so far and returns the
// generation to pass to the next Damage call. The consumer of a frame (one
// encoder) calls it once it has read everything Damage reported.
func (f *Frame) ClearDamage() uint64 {
	clear(f.dirty)
	f.all = false
	f.gen++
	return f.gen
}

// NewFrame allocates a black frame.
func NewFrame(res Resolution) *Frame {
	return &Frame{Width: res.Width, Height: res.Height, Pix: make([]byte, res.Width*res.Height)}
}

// At returns the luminance at (x, y); out-of-bounds reads return 0.
func (f *Frame) At(x, y int) byte {
	if x < 0 || y < 0 || x >= f.Width || y >= f.Height {
		return 0
	}
	return f.Pix[y*f.Width+x]
}

// Equal reports whether two frames are pixel-identical.
func (f *Frame) Equal(o *Frame) bool {
	if f.Width != o.Width || f.Height != o.Height {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// DiffFraction returns the fraction of pixels that differ between two
// same-sized frames (1 if sizes differ) — the motion measure the encoder's
// inter-frame compression exploits.
func (f *Frame) DiffFraction(o *Frame) float64 {
	if f.Width != o.Width || f.Height != o.Height || len(f.Pix) == 0 {
		return 1
	}
	diff := 0
	for i := range f.Pix {
		if f.Pix[i] != o.Pix[i] {
			diff++
		}
	}
	return float64(diff) / float64(len(f.Pix))
}

// String summarizes the frame.
func (f *Frame) String() string {
	return fmt.Sprintf("frame{%dx%d tick=%d}", f.Width, f.Height, f.Tick)
}

// Renderer rasterizes world snapshots for one player's viewport.
type Renderer struct {
	res Resolution
	vis []virtualworld.Entity // per-frame culling scratch
}

// NewRenderer creates a renderer at the given resolution.
func NewRenderer(res Resolution) *Renderer {
	if res.Width <= 0 || res.Height <= 0 {
		res = ResolutionForLevel(3)
	}
	return &Renderer{res: res}
}

// Resolution returns the output frame size.
func (r *Renderer) Resolution() Resolution { return r.res }

// entityRadiusPx is the drawn disc radius in pixels.
const entityRadiusPx = 4

// baseLuma returns the disc intensity for an entity: kind bands plus a
// health modulation, so frames change when entities take damage.
func baseLuma(e virtualworld.Entity) byte {
	switch e.Kind {
	case virtualworld.KindAvatar:
		hp := int(e.HP)
		if hp < 0 {
			hp = 0
		}
		return byte(160 + hp*95/virtualworld.MaxHP) // 160..255
	case virtualworld.KindNPC:
		hp := int(e.HP)
		if hp < 0 {
			hp = 0
		}
		return byte(96 + hp*63/virtualworld.MaxHP) // 96..159
	default:
		return 80 // items
	}
}

// RenderInto rasterizes the visible slice of the snapshot for the viewport
// into an existing frame, reusing its pixel buffer: zero allocations per
// frame in steady state. The frame is resized (and its buffer regrown) only
// when the renderer's resolution differs — the 30 fps fog streaming loop
// renders into the same frame every tick, and then the cost is the sprites:
// a frame that still holds RenderInto's previous output gets background
// only under the tiles that render drew on, and its damage (Frame.Damage)
// grows by those tiles and the ones drawn now. Any other frame is painted
// whole and reports everything damaged.
func (r *Renderer) RenderInto(s virtualworld.Snapshot, v virtualworld.Viewport, f *Frame) {
	w, h := r.res.Width, r.res.Height
	held := f.Width == w && f.Height == h && len(f.Pix) == w*h && f.rendered()
	if !held {
		f.Width, f.Height = w, h
		if cap(f.Pix) < w*h {
			f.Pix = make([]byte, w*h)
		}
		f.Pix = f.Pix[:w*h]
	}
	f.Tick = s.Tick
	// Background: a screen-space gradient in coarse bands. Keeping it
	// static in screen coordinates mirrors what motion-compensated codecs
	// achieve for panning cameras: successive frames differ mostly where
	// entities moved, which is what the inter-frame compression of the
	// codec (and of LiveRender, which the paper cites) exploits.
	tw := (w + TileSize - 1) / TileSize
	if held {
		for i, d := range f.drawn {
			f.dirty[i] |= d
			f.drawn[i] = 0
			for ; d != 0; d &= d - 1 {
				t := i*64 + bits.TrailingZeros64(d)
				f.fillTile(t%tw, t/tw, bandLuma(t/tw))
			}
		}
	} else {
		for y := 0; y < h; y += TileSize {
			first := f.Pix[y*w : (y+1)*w]
			band := bandLuma(y / TileSize)
			for x := range first {
				first[x] = band
			}
			for yy := y + 1; yy < y+TileSize && yy < h; yy++ {
				copy(f.Pix[yy*w:(yy+1)*w], first)
			}
		}
		words := (tw*((h+TileSize-1)/TileSize) + 63) / 64
		f.drawn = zeroedBits(f.drawn, words)
		f.dirty = zeroedBits(f.dirty, words)
		f.own, f.all = &f.Pix[0], true
	}
	// Entities, back-to-front by ID for determinism. Culling reuses the
	// renderer's scratch slice so the per-frame loop stays allocation-free.
	r.vis = virtualworld.AppendVisibleEntities(r.vis[:0], s, v)
	for _, e := range r.vis {
		px := int((e.X - (v.CenterX - v.HalfWidth)) / (2 * v.HalfWidth) * float64(w))
		py := int((e.Y - (v.CenterY - v.HalfHeight)) / (2 * v.HalfHeight) * float64(h))
		x0, x1 := max(px-entityRadiusPx, 0), min(px+entityRadiusPx, w-1)
		y0, y1 := max(py-entityRadiusPx, 0), min(py+entityRadiusPx, h-1)
		if x0 > x1 || y0 > y1 {
			continue // the whole disc is off screen
		}
		luma := baseLuma(e)
		// Pose modulation so emotes are visible.
		luma ^= e.State << 2
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				if dx, dy := x-px, y-py; dx*dx+dy*dy <= entityRadiusPx*entityRadiusPx {
					f.Pix[y*w+x] = luma
				}
			}
		}
		for ty := y0 / TileSize; ty <= y1/TileSize; ty++ {
			for tx := x0 / TileSize; tx <= x1/TileSize; tx++ {
				t := ty*tw + tx
				f.drawn[t/64] |= 1 << (t % 64)
				f.dirty[t/64] |= 1 << (t % 64)
			}
		}
	}
}

// bandLuma is the background luminance of tile row ty.
func bandLuma(ty int) byte { return byte(16 + ty%8*4) }

// fillTile paints tile (tx, ty), clipped to the frame, with one value.
func (f *Frame) fillTile(tx, ty int, v byte) {
	x0, x1 := tx*TileSize, min((tx+1)*TileSize, f.Width)
	for y := ty * TileSize; y < (ty+1)*TileSize && y < f.Height; y++ {
		row := f.Pix[y*f.Width+x0 : y*f.Width+x1]
		for x := range row {
			row[x] = v
		}
	}
}

// zeroedBits returns b resized to n zero words, reusing its capacity.
func zeroedBits(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// ViewHalfWidth and ViewHalfHeight are the fixed viewport half-extents in
// world units. The cloud's interest management (fognet AoI) derives each
// subscription from the same extents, so the subscribed cells always cover
// what this renderer will draw.
const (
	ViewHalfWidth  = 120.0
	ViewHalfHeight = 90.0
)

// ViewportFor derives a player's viewport from its avatar position in the
// snapshot: a fixed-size window centered on the avatar (or the world
// center when the avatar is absent).
func ViewportFor(s virtualworld.Snapshot, player int) virtualworld.Viewport {
	v := virtualworld.Viewport{
		CenterX: s.Width / 2, CenterY: s.Height / 2,
		HalfWidth: ViewHalfWidth, HalfHeight: ViewHalfHeight,
	}
	for _, e := range s.Entities {
		if e.Kind == virtualworld.KindAvatar && e.Owner == player {
			v.CenterX, v.CenterY = e.X, e.Y
			break
		}
	}
	return v
}
