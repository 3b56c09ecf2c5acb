// Package adaptation implements the receiver-driven encoding rate
// adaptation strategy of §3.3 of the CloudFog paper.
//
// The player buffers received video segments; the controller estimates the
// buffered amount (Eq. 8), converts it to a segment count r (Eq. 9), and
// adjusts the encoding bitrate one Table 2 quality level at a time:
//
//	adjust UP   when r > (1 + beta) / rho      (Eq. 10, rho-scaled)
//	adjust DOWN when r < theta / rho           (Eq. 12, rho-scaled)
//
// where beta = max_i (b_{q_{i+1}} - b_{q_i}) / b_{q_i} (Eq. 11) guarantees
// the buffered amount already covers the next level's larger segments,
// theta <= 1 is the adjust-down threshold, and rho in (0, 1] is the game's
// latency tolerance degree — latency-sensitive games (small rho) get a
// HIGHER up-switch bar and a HIGHER down-switch bar, so they shed quality
// earlier and regain it more cautiously.
//
// To prevent bitrate oscillation, an adjustment triggers only after
// Debounce consecutive estimates agree (the paper: "the client can conduct
// the calculations of r for a number of times consecutively").
package adaptation

import (
	"fmt"

	"cloudfog/internal/game"
)

// DefaultTheta is the adjust-down threshold θ used in the paper's
// experiments.
const DefaultTheta = 0.5

// DefaultDebounce is the number of consecutive agreeing estimates required
// before the bitrate changes.
const DefaultDebounce = 3

// DefaultLossDownThreshold is the datagram loss fraction above which the
// controller treats the link as congested. TCP transport hides loss as
// retransmit delay (it surfaces through the buffer model); the unreliable
// datagram transport reports it explicitly via NoteLoss.
const DefaultLossDownThreshold = 0.05

// MaxBufferSegments bounds the playback buffer: the receiver stops
// prefetching once this many segments are queued.
const MaxBufferSegments = 10.0

// Beta computes the adjust-up factor β of Eq. 11 over the Table 2 ladder:
// the largest relative bitrate step between adjacent quality levels.
func Beta() float64 {
	ladder := game.Ladder()
	var beta float64
	for i := 0; i+1 < len(ladder); i++ {
		step := (ladder[i+1].BitrateKbps - ladder[i].BitrateKbps) / ladder[i].BitrateKbps
		if step > beta {
			beta = step
		}
	}
	return beta
}

// Config parameterizes a Controller.
type Config struct {
	// Theta is the adjust-down threshold (0 < Theta <= 1). Defaults to
	// DefaultTheta.
	Theta float64
	// Rho is the game's latency tolerance degree in (0, 1]. Defaults to 1.
	Rho float64
	// Debounce is the number of consecutive agreeing estimates required to
	// switch. Defaults to DefaultDebounce.
	Debounce int
	// MaxLevel caps the quality at the game's default level (a game never
	// streams above its own default quality). Defaults to the top rung.
	MaxLevel game.QualityLevel
	// Disabled pins the bitrate to MaxLevel, modeling the paper's opt-out
	// ("users can also disable the encoding rate adaptation strategy").
	Disabled bool
	// SegmentSec is the segment duration τ. Defaults to
	// game.SegmentDurationSec.
	SegmentSec float64
	// LossDownThreshold is the datagram loss fraction (reported via
	// NoteLoss) at which the controller refuses up-switches and treats
	// the window as down-pressure regardless of the buffer estimate.
	// Defaults to DefaultLossDownThreshold.
	LossDownThreshold float64
}

func (c Config) withDefaults() Config {
	if c.Theta <= 0 || c.Theta > 1 {
		c.Theta = DefaultTheta
	}
	if c.Rho <= 0 || c.Rho > 1 {
		c.Rho = 1
	}
	if c.Debounce <= 0 {
		c.Debounce = DefaultDebounce
	}
	if c.MaxLevel < 1 || c.MaxLevel > game.NumQualityLevels {
		c.MaxLevel = game.NumQualityLevels
	}
	if c.SegmentSec <= 0 {
		c.SegmentSec = game.SegmentDurationSec
	}
	if c.LossDownThreshold <= 0 || c.LossDownThreshold > 1 {
		c.LossDownThreshold = DefaultLossDownThreshold
	}
	return c
}

// Decision reports what a controller step decided.
type Decision int

const (
	// Hold keeps the current encoding level.
	Hold Decision = iota + 1
	// Up raises the encoding level by one rung.
	Up
	// Down lowers the encoding level by one rung.
	Down
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return "unknown"
	}
}

// Controller is the receiver-driven rate controller for one player session.
type Controller struct {
	cfg   Config
	beta  float64
	level game.QualityLevel

	bufferedSec float64 // buffered video, in seconds of playback
	lastTimeSec float64

	upStreak   int
	downStreak int

	// lastLoss is the most recent datagram loss fraction reported via
	// NoteLoss; zero on the (lossless by construction) TCP transport.
	lastLoss float64

	switches int
}

// NewController creates a controller starting at the given level (clamped
// to [1, cfg.MaxLevel]).
func NewController(cfg Config, startLevel game.QualityLevel) *Controller {
	c := &Controller{}
	c.Reset(cfg, startLevel)
	return c
}

// Reset reinitializes c in place to the state NewController would build,
// discarding all history. It lets callers keep controllers in a dense value
// slice (one per player slot) and restart them per session without
// allocating.
func (c *Controller) Reset(cfg Config, startLevel game.QualityLevel) {
	cfg = cfg.withDefaults()
	if startLevel < 1 {
		startLevel = 1
	}
	if startLevel > cfg.MaxLevel {
		startLevel = cfg.MaxLevel
	}
	*c = Controller{cfg: cfg, beta: Beta(), level: startLevel}
}

// Level returns the current encoding quality level.
func (c *Controller) Level() game.QualityLevel { return c.level }

// BitrateKbps returns the current encoding bitrate.
func (c *Controller) BitrateKbps() float64 {
	return game.BitrateKbps(c.level)
}

// BufferedSegments returns r, the number of whole segments currently
// buffered (Eq. 9).
func (c *Controller) BufferedSegments() float64 {
	return c.bufferedSec / c.cfg.SegmentSec
}

// Switches returns how many bitrate changes the controller has made.
func (c *Controller) Switches() int { return c.switches }

// NoteLoss records the datagram loss fraction observed over the most
// recent measurement window (0..1). It sticks until the next call, so a
// receiver reporting once per window keeps the controller's view current.
// Loss at or above LossDownThreshold vetoes up-switches and converts the
// window into down-pressure: on an unreliable transport a drained buffer
// is not the first symptom of congestion — missing sequence numbers are.
func (c *Controller) NoteLoss(fraction float64) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	c.lastLoss = fraction
}

// Lossy reports whether the last NoteLoss crossed the down threshold.
func (c *Controller) Lossy() bool {
	return c.lastLoss >= c.cfg.LossDownThreshold
}

// UpThreshold returns the rho-scaled up-switch bar (1+β)/ρ.
func (c *Controller) UpThreshold() float64 { return (1 + c.beta) / c.cfg.Rho }

// DownThreshold returns the rho-scaled down-switch bar θ/ρ.
func (c *Controller) DownThreshold() float64 { return c.cfg.Theta / c.cfg.Rho }

// Observe advances the buffer estimate to time nowSec given the current
// downloading rate (kbps actually delivered to the player) and returns the
// resulting decision. The playback rate is the current encoding bitrate:
// the player consumes exactly what the supernode encodes.
//
// This is Eq. 8: s(t_k) = s(t_{k-1}) + (t_k - t_{k-1})(d(t_k) - b_p(t_k)),
// tracked in seconds of playback rather than bits so r falls out directly.
func (c *Controller) Observe(nowSec, downloadKbps float64) Decision {
	dt := nowSec - c.lastTimeSec
	if dt < 0 {
		dt = 0
	}
	c.lastTimeSec = nowSec

	playKbps := c.BitrateKbps()
	// Net buffered seconds gained: downloaded playback-seconds minus
	// consumed wall-clock seconds. The buffer is bounded: receivers stop
	// prefetching past MaxBufferSegments.
	c.bufferedSec += dt * (downloadKbps/playKbps - 1)
	if c.bufferedSec < 0 {
		c.bufferedSec = 0
	}
	if maxSec := MaxBufferSegments * c.cfg.SegmentSec; c.bufferedSec > maxSec {
		c.bufferedSec = maxSec
	}

	if c.cfg.Disabled {
		return Hold
	}

	r := c.BufferedSegments()
	// An up-switch additionally requires the observed download rate to
	// sustain the next rung — otherwise a slowly-built buffer would flip
	// quality up only to drain it again (oscillation), which the paper's
	// consecutive-estimate rule aims to prevent.
	canSustainNext := c.level >= c.cfg.MaxLevel ||
		downloadKbps >= game.BitrateKbps(c.level+1)
	lossy := c.Lossy()
	switch {
	case r > c.UpThreshold() && c.level < c.cfg.MaxLevel && canSustainNext && !lossy:
		c.upStreak++
		c.downStreak = 0
		if c.upStreak >= c.cfg.Debounce {
			c.upStreak = 0
			c.level++
			c.switches++
			return Up
		}
	case (r < c.DownThreshold() || lossy) && c.level > 1:
		c.downStreak++
		c.upStreak = 0
		if c.downStreak >= c.cfg.Debounce {
			c.downStreak = 0
			c.level--
			c.switches++
			return Down
		}
	default:
		c.upStreak = 0
		c.downStreak = 0
	}
	return Hold
}

// String renders the controller state for debugging.
func (c *Controller) String() string {
	return fmt.Sprintf("adaptation{level=%d buffered=%.2fs switches=%d}",
		c.level, c.bufferedSec, c.switches)
}
