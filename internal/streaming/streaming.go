// Package streaming models game-video delivery from a source (supernode or
// cloud server) to a player, and the paper's two QoS metrics built on it:
//
//   - playback continuity: "the proportion of packets arrived within the
//     required response latency over all packets in a game video";
//   - satisfied player: a player receiving >= 95% of its game packets
//     within the game's response-latency requirement.
//
// Frame-level delivery is evaluated analytically rather than by simulating
// every one of the 30 frames per second: given the deterministic path
// latency, the frame transmission time at the current encoding bitrate, and
// an exponential queueing-jitter term whose mean grows with link
// utilization, the on-time probability per frame has a closed form. That
// keeps a 10,000-player simulation tractable while preserving exactly the
// sensitivities the paper measures (distance, bandwidth headroom,
// congestion, encoding bitrate).
package streaming

import (
	"math"

	"cloudfog/internal/game"
)

// PlayoutDelayMs is the client-side playout plus cloud processing delay:
// the paper attributes 20 ms of the 100 ms budget to it.
const PlayoutDelayMs = 20

// SatisfactionThreshold is the on-time fraction above which a player counts
// as satisfied (95% per the paper).
const SatisfactionThreshold = 0.95

// Link describes the effective delivery path for one streaming session
// during one evaluation interval.
type Link struct {
	// OneWayMs is the one-way network latency from source to player.
	OneWayMs float64
	// EffectiveKbps is the bandwidth actually available to this stream:
	// min(source upload share, player download), scaled by congestion and
	// any willingness throttling.
	EffectiveKbps float64
	// BaseJitterMs is the mean queueing jitter on an unloaded path.
	// Defaults to DefaultBaseJitterMs when zero.
	BaseJitterMs float64
}

// DefaultBaseJitterMs is the unloaded-path mean queueing jitter.
const DefaultBaseJitterMs = 2.0

// FrameBits returns the size of one video frame at the given bitrate.
func FrameBits(bitrateKbps float64) float64 {
	return bitrateKbps * 1000 / game.FrameRate
}

// PacketsPerFrame is how many network packets a frame is split into;
// delivery latency is judged per packet (the paper's continuity metric
// counts packets, not frames).
const PacketsPerFrame = 4

// PacketBits returns the size of one packet of a frame at the given
// bitrate.
func PacketBits(bitrateKbps float64) float64 {
	return FrameBits(bitrateKbps) / PacketsPerFrame
}

// maxUtilization caps the load factor used for jitter amplification: past
// ~90% utilization real transports shed load (frames are dropped, modeled
// separately by the deliverable-fraction cap) rather than queueing without
// bound, so the M/M/1 term is clamped to a 10x amplification.
const maxUtilization = 0.9

// utilization returns the stream's share of the link, clamped to
// [0, maxUtilization] for the queueing-delay computation.
func utilization(bitrateKbps, effectiveKbps float64) float64 {
	if effectiveKbps <= 0 {
		return maxUtilization
	}
	u := bitrateKbps / effectiveKbps
	if u > maxUtilization {
		return maxUtilization
	}
	if u < 0 {
		return 0
	}
	return u
}

// OnTimeProbability returns the probability that one frame of a stream
// encoded at bitrateKbps arrives within requirementMs of NETWORK response
// latency over the given link. Per the paper's budget split (100 ms total =
// 20 ms playout/processing + 80 ms network), Table 2 latency requirements
// are network budgets, so client playout is excluded here; callers add
// PlayoutDelayMs when reporting total response latency. The network latency
// of a frame is
//
//	one-way latency + transmission + queueing jitter
//
// with the jitter exponential of mean BaseJitterMs / (1 − utilization)
// (an M/M/1-style load amplification). When the link cannot sustain the
// bitrate at all (EffectiveKbps <= bitrate), the on-time fraction is
// additionally capped by the deliverable fraction EffectiveKbps/bitrate.
func OnTimeProbability(link Link, bitrateKbps, requirementMs float64) float64 {
	if bitrateKbps <= 0 {
		return 1
	}
	if link.EffectiveKbps <= 0 {
		return 0
	}
	baseJitter := link.BaseJitterMs
	if baseJitter <= 0 {
		baseJitter = DefaultBaseJitterMs
	}
	transMs := PacketBits(bitrateKbps) / link.EffectiveKbps
	base := link.OneWayMs + transMs
	slack := requirementMs - base
	if slack <= 0 {
		return 0
	}
	u := utilization(bitrateKbps, link.EffectiveKbps)
	jitterMean := baseJitter / (1 - u)
	p := 1 - math.Exp(-slack/jitterMean)
	// Undeliverable fraction when the link is saturated.
	if link.EffectiveKbps < bitrateKbps {
		p *= link.EffectiveKbps / bitrateKbps
	}
	return p
}

// NetworkLatencyMs returns the expected network response latency of a frame
// over the link: one-way + transmission + mean jitter. Core adds
// PlayoutDelayMs plus its action/update/server-communication overheads when
// reporting the total response latency Fig. 7 averages.
func NetworkLatencyMs(link Link, bitrateKbps float64) float64 {
	if link.EffectiveKbps <= 0 {
		return math.Inf(1)
	}
	baseJitter := link.BaseJitterMs
	if baseJitter <= 0 {
		baseJitter = DefaultBaseJitterMs
	}
	u := utilization(bitrateKbps, link.EffectiveKbps)
	transMs := PacketBits(bitrateKbps) / link.EffectiveKbps
	return link.OneWayMs + transMs + baseJitter/(1-u)
}

// PrefetchFactor is how far above real-time the sender paces segment
// delivery while the receiver's buffer has room: up to 2x the encoding
// bitrate, bounded by the link. Without prefetch the buffer could never
// build and the buffer-based adjustment rules of §3.3 would see a
// perpetually empty buffer.
const PrefetchFactor = 2.0

// DeliveredKbps returns d(t_k), the segment download rate the receiver
// observes (Eq. 8): the link's effective bandwidth, capped at the sender's
// prefetch pacing of PrefetchFactor times the encoding bitrate.
func DeliveredKbps(link Link, bitrateKbps float64) float64 {
	pace := PrefetchFactor * bitrateKbps
	if link.EffectiveKbps < pace {
		return link.EffectiveKbps
	}
	return pace
}

// Meter accumulates a session's delivery quality across evaluation
// intervals, weighted by interval duration.
type Meter struct {
	onTimeWeighted float64
	weight         float64
}

// Observe records one evaluation interval of the given duration (any
// consistent unit) with per-frame on-time probability p.
func (m *Meter) Observe(duration, p float64) {
	if duration <= 0 {
		return
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	m.onTimeWeighted += duration * p
	m.weight += duration
}

// Continuity returns the session's playback continuity: the duration-
// weighted on-time fraction. Returns 0 when nothing was observed.
func (m *Meter) Continuity() float64 {
	if m.weight == 0 {
		return 0
	}
	return m.onTimeWeighted / m.weight
}

// Satisfied reports whether the session meets the 95% on-time bar.
func (m *Meter) Satisfied() bool {
	return m.weight > 0 && m.Continuity() >= SatisfactionThreshold
}

// Observed reports whether the meter has recorded any interval.
func (m *Meter) Observed() bool { return m.weight > 0 }
