// Package netmodel implements the end-to-end network model underlying the
// CloudFog simulator: per-endpoint access links, distance-based propagation,
// trace-driven path jitter, access bandwidth distributions, and a congestion
// process.
//
// The model follows the paper's experimental settings:
//
//   - pairwise latency is sampled from a ping-latency trace by occurrence
//     frequency (internal/trace), scaled by path distance so that nearby
//     supernodes really are "close in network distance";
//   - download bandwidth follows the empirical distributions of the VoD /
//     P2P measurement studies the paper cites, and upload capacity is set
//     to 1/3 of download, "to simulate real-world internet connections";
//   - supernode capacities (max supported players) follow a Pareto
//     distribution with shape alpha = 2.
//
// All sampling is deterministic: path jitter is derived by hashing the two
// endpoint IDs with the model seed, so the same pair always observes the
// same path quality within a run, exactly like a static trace lookup.
package netmodel

import (
	"math"

	"cloudfog/internal/geo"
	"cloudfog/internal/rng"
	"cloudfog/internal/trace"
)

// NodeClass distinguishes endpoint roles; access-link quality depends on it.
type NodeClass int

const (
	// ClassPlayer is a thin-client end user on a consumer access link.
	ClassPlayer NodeClass = iota + 1
	// ClassSupernode is a contributed fog machine with a superior
	// connection (a supernode requirement in §3.1.1 of the paper).
	ClassSupernode
	// ClassDatacenter is a cloud datacenter with a backbone connection.
	ClassDatacenter
)

// String returns the class name.
func (c NodeClass) String() string {
	switch c {
	case ClassPlayer:
		return "player"
	case ClassSupernode:
		return "supernode"
	case ClassDatacenter:
		return "datacenter"
	default:
		return "unknown"
	}
}

// Endpoint is a network-attached entity: a player, supernode, or datacenter.
type Endpoint struct {
	// ID uniquely identifies the endpoint within a simulation.
	ID int
	// Class is the endpoint role.
	Class NodeClass
	// Loc is the endpoint's position on the continental plane.
	Loc geo.Point
	// AccessRTTMs is the round-trip latency of the endpoint's access link.
	AccessRTTMs float64
	// DownloadKbps is the downstream access capacity.
	DownloadKbps float64
	// UploadKbps is the upstream access capacity (download/3 for players).
	UploadKbps float64
}

// Params are the tunable constants of the network model. Zero values are
// replaced by defaults in NewModel.
type Params struct {
	// PropagationMsPerKm is the round-trip propagation+routing delay per
	// kilometer of geographic distance (defaults to 0.06 ms/km RTT,
	// i.e. ~270 ms RTT coast-to-coast including routing inflation).
	PropagationMsPerKm float64
	// JitterScaleMinimum is the fraction of a trace jitter sample applied
	// to zero-distance paths (default 0.10).
	JitterScaleMinimum float64
	// JitterFullDistanceKm is the distance at which the full trace jitter
	// applies (default 2000 km).
	JitterFullDistanceKm float64
	// CongestionDipProbability is the per-link-per-subcycle probability of
	// a congestion event (default 0.10).
	CongestionDipProbability float64
	// CongestionDipFactor is the bandwidth multiplier during a congestion
	// event (default 0.35).
	CongestionDipFactor float64
	// Trace is the path-jitter distribution (defaults to the
	// League-of-Legends stand-in trace).
	Trace *trace.PingTrace
}

func (p Params) withDefaults() Params {
	if p.PropagationMsPerKm == 0 {
		p.PropagationMsPerKm = 0.06
	}
	if p.JitterScaleMinimum == 0 {
		p.JitterScaleMinimum = 0.10
	}
	if p.JitterFullDistanceKm == 0 {
		p.JitterFullDistanceKm = 2000
	}
	if p.CongestionDipProbability == 0 {
		p.CongestionDipProbability = 0.10
	}
	if p.CongestionDipFactor == 0 {
		p.CongestionDipFactor = 0.35
	}
	if p.Trace == nil {
		p.Trace = trace.LeagueOfLegends()
	}
	return p
}

// Model computes latencies and bandwidth between endpoints.
type Model struct {
	params Params
	seed   uint64
}

// NewModel builds a network model with the given parameters and a seed for
// the deterministic per-pair jitter derivation.
func NewModel(params Params, seed uint64) *Model {
	return &Model{params: params.withDefaults(), seed: seed}
}

// Params returns the effective (defaulted) parameters of the model.
func (m *Model) Params() Params { return m.params }

// pairKey is the seed of an unordered endpoint pair's draw.
func (m *Model) pairKey(a, b int) uint64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := m.seed
	h = (h ^ uint64(lo)) * 0x100000001b3
	h = (h ^ uint64(hi)) * 0x100000001b3
	return h
}

// PathRTTMs returns the round-trip network latency between two endpoints in
// milliseconds: both access links, distance-proportional propagation, and a
// trace-sampled jitter term scaled by distance. The value is deterministic
// for a given pair within one model: r is the caller's scratch, reseeded
// from the pair, so its state before the call does not matter. A scratch
// must not be shared across goroutines.
func (m *Model) PathRTTMs(r *rng.Rand, a, b *Endpoint) float64 {
	r.Reseed(m.pairKey(a.ID, b.ID))
	dist := geo.Distance(a.Loc, b.Loc)
	prop := m.params.PropagationMsPerKm * dist
	scale := m.params.JitterScaleMinimum +
		(1-m.params.JitterScaleMinimum)*math.Min(1, dist/m.params.JitterFullDistanceKm)
	jitter := m.params.Trace.Sample(r) * scale
	return a.AccessRTTMs + b.AccessRTTMs + prop + jitter
}

// OneWayMs returns the one-way network latency between two endpoints,
// approximated as half the path RTT; r is a scratch as for PathRTTMs.
func (m *Model) OneWayMs(r *rng.Rand, a, b *Endpoint) float64 {
	return m.PathRTTMs(r, a, b) / 2
}

// CongestionFactor returns the effective-bandwidth multiplier for the link
// identified by linkID during the given subcycle: 1.0 normally, mildly
// degraded at random, and sharply degraded during a congestion dip. The
// value is deterministic per (link, subcycle); r is a scratch as for
// PathRTTMs.
func (m *Model) CongestionFactor(r *rng.Rand, linkID, cycle, subcycle int) float64 {
	r.Reseed(m.seed ^ (uint64(linkID)*0x9e3779b97f4a7c15 +
		uint64(cycle)*0x85ebca77c2b2ae63 + uint64(subcycle)*0xc2b2ae3d27d4eb4f))
	if r.Bool(m.params.CongestionDipProbability) {
		return m.params.CongestionDipFactor
	}
	return r.Uniform(0.75, 1.0)
}

// --- Endpoint factories -----------------------------------------------

// accessRTT tiers for consumer players: a bulk of cable/fiber users and a
// congested DSL/wireless tail. The tail is what caps supernode coverage
// below 100% in Fig. 4(b)/5(b).
var playerAccessRTT = rng.NewWeighted(
	[]float64{2, 4, 6, 9, 12, 16, 24, 35, 60},
	[]float64{0.14, 0.22, 0.22, 0.16, 0.10, 0.07, 0.05, 0.03, 0.01},
)

// Download tiers (kbps) patterned on the VoD / P2P bandwidth measurement
// studies the paper cites ([42], [43]): a spread from ~2 Mbps DSL to 30 Mbps
// fiber. Even the lowest tier sustains the bottom rungs of the Table 2
// ladder, as the receiver-driven adaptation assumes.
var playerDownloadKbps = rng.NewWeighted(
	[]float64{2000, 3000, 5000, 8000, 12000, 20000, 30000},
	[]float64{0.08, 0.15, 0.20, 0.22, 0.18, 0.12, 0.05},
)

// NewPlayerEndpoint samples a player endpoint at the given location.
// Upload capacity is download/3, matching the paper's setting.
func NewPlayerEndpoint(id int, loc geo.Point, r *rng.Rand) *Endpoint {
	down := playerDownloadKbps.Sample(r)
	return &Endpoint{
		ID:           id,
		Class:        ClassPlayer,
		Loc:          loc,
		AccessRTTMs:  playerAccessRTT.Sample(r) * r.Uniform(0.9, 1.1),
		DownloadKbps: down,
		UploadKbps:   down / 3,
	}
}

// NewSupernodeEndpoint samples a supernode endpoint: low access latency and
// a superior upload link (a deployment requirement from §3.1.1).
func NewSupernodeEndpoint(id int, loc geo.Point, r *rng.Rand) *Endpoint {
	up := r.Uniform(60000, 200000)
	return &Endpoint{
		ID:           id,
		Class:        ClassSupernode,
		Loc:          loc,
		AccessRTTMs:  r.Uniform(1, 4),
		DownloadKbps: up * 2,
		UploadKbps:   up,
	}
}

// NewDatacenterEndpoint creates a datacenter endpoint with a backbone-grade
// access link.
func NewDatacenterEndpoint(id int, loc geo.Point) *Endpoint {
	return &Endpoint{
		ID:           id,
		Class:        ClassDatacenter,
		Loc:          loc,
		AccessRTTMs:  2,
		DownloadKbps: 10e6,
		UploadKbps:   10e6,
	}
}

// SupernodeCapacity samples the maximum number of players a supernode can
// support: Pareto with shape alpha = 2 per the paper, clamped to
// [minCap, maxCap].
func SupernodeCapacity(r *rng.Rand, minCap, maxCap int) int {
	c := int(r.Pareto(float64(minCap), 2))
	if c < minCap {
		c = minCap
	}
	if c > maxCap {
		c = maxCap
	}
	return c
}
