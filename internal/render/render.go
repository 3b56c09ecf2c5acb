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

// Frame is one rendered grayscale video frame.
type Frame struct {
	// Width, Height are the frame dimensions.
	Width, Height int
	// Pix holds Width*Height luminance bytes, row-major.
	Pix []byte
	// Tick is the world tick the frame depicts.
	Tick uint64
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

// set writes a pixel, ignoring out-of-bounds writes.
func (f *Frame) set(x, y int, v byte) {
	if x < 0 || y < 0 || x >= f.Width || y >= f.Height {
		return
	}
	f.Pix[y*f.Width+x] = v
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
// frame in steady state. The frame is resized (and
// its buffer regrown) only when the renderer's resolution differs — the
// 30 fps fog streaming loop renders into the same frame every tick.
func (r *Renderer) RenderInto(s virtualworld.Snapshot, v virtualworld.Viewport, f *Frame) {
	if f.Width != r.res.Width || f.Height != r.res.Height || len(f.Pix) != r.res.Width*r.res.Height {
		f.Width, f.Height = r.res.Width, r.res.Height
		if cap(f.Pix) < f.Width*f.Height {
			f.Pix = make([]byte, f.Width*f.Height)
		}
		f.Pix = f.Pix[:f.Width*f.Height]
	}
	f.Tick = s.Tick
	// Background: a screen-space gradient in coarse bands. Keeping it
	// static in screen coordinates mirrors what motion-compensated codecs
	// achieve for panning cameras: successive frames differ mostly where
	// entities moved, which is what the inter-frame compression of the
	// codec (and of LiveRender, which the paper cites) exploits.
	for y := 0; y < f.Height; y++ {
		band := byte(16 + ((y / 16) % 8 * 4))
		row := f.Pix[y*f.Width : (y+1)*f.Width]
		for x := range row {
			row[x] = band
		}
	}
	// Entities, back-to-front by ID for determinism. Culling reuses the
	// renderer's scratch slice so the per-frame loop stays allocation-free.
	r.vis = virtualworld.AppendVisibleEntities(r.vis[:0], s, v)
	for _, e := range r.vis {
		px := int((e.X - (v.CenterX - v.HalfWidth)) / (2 * v.HalfWidth) * float64(f.Width))
		py := int((e.Y - (v.CenterY - v.HalfHeight)) / (2 * v.HalfHeight) * float64(f.Height))
		luma := baseLuma(e)
		// Pose modulation so emotes are visible.
		luma ^= e.State << 2
		for dy := -entityRadiusPx; dy <= entityRadiusPx; dy++ {
			for dx := -entityRadiusPx; dx <= entityRadiusPx; dx++ {
				if dx*dx+dy*dy <= entityRadiusPx*entityRadiusPx {
					f.set(px+dx, py+dy, luma)
				}
			}
		}
	}
}

// ViewHalfWidth and ViewHalfHeight are the fixed viewport half-extents in
// world units. The interest-management layer (fognet AoI) derives its grid
// footprint from the same extents, so the subscribed cells always cover
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
