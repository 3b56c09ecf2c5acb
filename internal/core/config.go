// Package core implements the CloudFog system of Lin & Shen — the paper's
// primary contribution — together with the two comparison systems of its
// evaluation: the plain cloud-gaming model ("Cloud") and the EdgeCloud-style
// CDN-augmented model ("CDN").
//
// A System wires the substrates together: the network model, the cloud
// datacenters, the fog of supernodes, the social graph, the workload
// generator, and the four QoS strategies (reputation-based supernode
// selection, receiver-driven encoding rate adaptation, social-network-based
// server assignment, dynamic supernode provisioning). Strategy flags turn
// each on or off, which is how the paper's CloudFog/B (basic) and
// CloudFog/A (advanced) variants, and every per-strategy figure, are
// expressed.
package core

import (
	"fmt"
	"time"

	"cloudfog/internal/netmodel"
	"cloudfog/internal/trace"
	"cloudfog/internal/workload"
)

// Mode selects which gaming system a simulation runs.
type Mode int

const (
	// ModeCloud is the conventional cloud-gaming model: datacenters
	// compute state, render, and stream to every player.
	ModeCloud Mode = iota + 1
	// ModeCDN is the EdgeCloud-style hybrid: CDN servers near users take
	// over state computation, rendering, and streaming for the players
	// they can reach; everyone else uses the cloud.
	ModeCDN
	// ModeCloudFog is the paper's system: the cloud computes state and
	// pushes updates to supernodes, which render and stream.
	ModeCloudFog
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeCloud:
		return "Cloud"
	case ModeCDN:
		return "CDN"
	case ModeCloudFog:
		return "CloudFog"
	default:
		return "unknown"
	}
}

// Strategies toggles the four CloudFog QoS strategies. The zero value is
// CloudFog/B (basic); AllStrategies() is CloudFog/A (advanced).
type Strategies struct {
	// Reputation enables reputation-based supernode selection (§3.2).
	Reputation bool
	// Adaptation enables receiver-driven encoding rate adaptation (§3.3).
	Adaptation bool
	// SocialAssignment enables social-network-based server assignment
	// (§3.4).
	SocialAssignment bool
	// Provisioning enables dynamic supernode provisioning (§3.5).
	Provisioning bool
}

// AllStrategies returns the CloudFog/A strategy set.
func AllStrategies() Strategies {
	return Strategies{Reputation: true, Adaptation: true, SocialAssignment: true, Provisioning: true}
}

// Config describes one simulated deployment.
type Config struct {
	// Mode selects the gaming system.
	Mode Mode
	// Players is the total player population (online and offline).
	Players int
	// Supernodes is the number of deployed supernodes (ModeCloudFog).
	Supernodes int
	// SupernodeCandidates is the size of the contributable-machine pool
	// ("10% of players have the capacity to be supernodes"). Defaults to
	// max(Supernodes, Players/10).
	SupernodeCandidates int
	// CDNServers is the number of CDN servers (ModeCDN).
	CDNServers int
	// CDNServerCapacity is the per-CDN-server player capacity.
	CDNServerCapacity int
	// Datacenters is the number of main cloud datacenters.
	Datacenters int
	// ServersPerDC is the number of game servers per datacenter.
	ServersPerDC int
	// Strategies toggles the QoS strategies (ModeCloudFog).
	Strategies Strategies
	// Seed drives all randomness; equal configs reproduce bit-for-bit.
	Seed uint64
	// Net overrides network-model parameters (zero fields take defaults).
	Net netmodel.Params
	// UpdateKbps is Λ, the cloud->supernode update stream bandwidth.
	UpdateKbps float64
	// CandidateListSize is how many supernode candidates the cloud
	// returns to a joining player.
	CandidateListSize int
	// Lambda is the reputation aging factor.
	Lambda float64
	// Theta is the adaptation adjust-down threshold θ.
	Theta float64
	// AdaptationDebounce is the number of consecutive agreeing buffer
	// estimates required before the encoding rate changes (0 = the
	// controller default).
	AdaptationDebounce int
	// AssignH1 and AssignH2 are the server-assignment refinement bounds.
	AssignH1 int
	AssignH2 int
	// WallClock, when non-nil, supplies real time for the server-assignment
	// latency metric (Fig. 9). The simulator itself never reads the wall
	// clock: with WallClock nil (the default, and what every experiment
	// uses) the latency is modeled deterministically from the work the
	// assignment run performed, so seeded runs reproduce bit-for-bit.
	WallClock func() time.Time
	// ProvisionEpsilon is ε, the provisioning headroom factor.
	ProvisionEpsilon float64
	// ProvisionWindowHours is m, the forecasting window (paper: 4 h).
	ProvisionWindowHours int
	// FixedSupernodePool, when Provisioning is off in a churn experiment,
	// caps the active supernodes to a constant pool of this size
	// (0 = all deployed supernodes stay active).
	FixedSupernodePool int
	// SupernodeCapacityMin / Max clamp the Pareto capacity draw.
	SupernodeCapacityMin int
	SupernodeCapacityMax int
	// ForcedSupernodeLoad, when positive, pins every supernode's capacity
	// to this value — the per-supernode load sweep of Fig. 10/11.
	ForcedSupernodeLoad int

	// WideAreaBWPenalty is the fractional bandwidth loss of a
	// full-distance wide-area path (inter-domain bottlenecks).
	WideAreaBWPenalty float64
	// JitterPerOnewayMs adds per-frame queueing jitter proportional to
	// the one-way path latency (more hops, more variance).
	JitterPerOnewayMs float64
	// ServerStreamKbps is the per-stream upload a datacenter or CDN
	// server devotes to one player.
	ServerStreamKbps float64
	// RenderMs is the supernode/CDN render time per response.
	RenderMs float64

	// FailSupernodesPerCycle injects supernode failures: during every
	// measured cycle, this many random active supernodes are withdrawn at
	// mid-day, forcing their players to migrate (the Fig. 9 migration
	// study).
	FailSupernodesPerCycle int

	// AlwaysOn keeps every player online for the full day — the
	// concurrent-player sweeps of Fig. 6-8 vary the number of players
	// "playing games concurrently".
	AlwaysOn bool

	// Arrivals switches the workload into churn mode: instead of the
	// diurnal schedule, players join in Poisson bursts at the script's
	// rates (the Fig. 13–15 experiments).
	Arrivals *workload.ArrivalScript

	// Workers sizes the streaming-evaluation worker pool (parallel.go): a
	// positive value is the pool size (1 runs on the caller's goroutine),
	// anything else means GOMAXPROCS. Seeded outputs are bit-identical
	// across all settings. The pool stays because it measured 1.26–2.00×
	// (median 1.49) over one worker on two cores (DESIGN.md §15); the serial
	// parts that cap it are the join path and assignment.Assign.
	Workers int
}

// Default tuning constants.
const (
	DefaultWideAreaBWPenalty = 0.45
	DefaultJitterPerOnewayMs = 0.08
	DefaultServerStreamKbps  = 6000
	DefaultRenderMs          = 2
	DefaultProvisionEpsilon  = 0.15
	DefaultProvisionWindow   = 4
)

// PeerSim returns the paper's simulation profile: 10,000 players, 600
// supernodes, 5 datacenters of 50 servers, 300 CDN servers.
func PeerSim() Config {
	return Config{
		Mode:                 ModeCloudFog,
		Players:              10000,
		Supernodes:           600,
		CDNServers:           300,
		CDNServerCapacity:    30,
		Datacenters:          5,
		ServersPerDC:         50,
		Seed:                 1,
		UpdateKbps:           150,
		CandidateListSize:    8,
		Lambda:               0.9,
		Theta:                0.5,
		AssignH1:             100,
		AssignH2:             10,
		ProvisionEpsilon:     DefaultProvisionEpsilon,
		ProvisionWindowHours: DefaultProvisionWindow,
		SupernodeCapacityMin: 15,
		SupernodeCapacityMax: 60,
		WideAreaBWPenalty:    DefaultWideAreaBWPenalty,
		JitterPerOnewayMs:    DefaultJitterPerOnewayMs,
		ServerStreamKbps:     DefaultServerStreamKbps,
		RenderMs:             DefaultRenderMs,
	}
}

// PlanetLab returns the testbed profile: 750 nodes, 30 supernodes, 2
// datacenters, with a heavier-tailed wide-area latency trace (the
// substitution for the real PlanetLab deployment, DESIGN.md §5).
func PlanetLab() Config {
	cfg := PeerSim()
	cfg.Players = 750
	cfg.Supernodes = 30
	cfg.SupernodeCandidates = 30
	cfg.CDNServers = 15
	cfg.Datacenters = 2
	cfg.Net.Trace = trace.WideArea()
	return cfg
}

// normalize fills defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.Players <= 0 {
		return c, fmt.Errorf("core: Players must be positive, got %d", c.Players)
	}
	if c.Datacenters <= 0 {
		return c, fmt.Errorf("core: Datacenters must be positive, got %d", c.Datacenters)
	}
	if c.Mode == 0 {
		c.Mode = ModeCloudFog
	}
	if c.ServersPerDC <= 0 {
		c.ServersPerDC = 50
	}
	if c.SupernodeCandidates <= 0 {
		c.SupernodeCandidates = c.Players / 10
	}
	if c.SupernodeCandidates < c.Supernodes {
		c.SupernodeCandidates = c.Supernodes
	}
	if c.CDNServerCapacity <= 0 {
		c.CDNServerCapacity = 30
	}
	if c.UpdateKbps <= 0 {
		c.UpdateKbps = 150
	}
	if c.CandidateListSize <= 0 {
		c.CandidateListSize = 8
	}
	if c.Lambda <= 0 || c.Lambda >= 1 {
		c.Lambda = 0.9
	}
	if c.Theta <= 0 || c.Theta > 1 {
		c.Theta = 0.5
	}
	if c.AssignH1 <= 0 {
		c.AssignH1 = 100
	}
	if c.AssignH2 <= 0 {
		c.AssignH2 = 10
	}
	if c.ProvisionEpsilon <= 0 {
		c.ProvisionEpsilon = DefaultProvisionEpsilon
	}
	if c.ProvisionWindowHours <= 0 {
		c.ProvisionWindowHours = DefaultProvisionWindow
	}
	if c.SupernodeCapacityMin <= 0 {
		c.SupernodeCapacityMin = 3
	}
	if c.SupernodeCapacityMax < c.SupernodeCapacityMin {
		c.SupernodeCapacityMax = c.SupernodeCapacityMin * 10
	}
	if c.WideAreaBWPenalty <= 0 || c.WideAreaBWPenalty >= 1 {
		c.WideAreaBWPenalty = DefaultWideAreaBWPenalty
	}
	if c.JitterPerOnewayMs <= 0 {
		c.JitterPerOnewayMs = DefaultJitterPerOnewayMs
	}
	if c.ServerStreamKbps <= 0 {
		c.ServerStreamKbps = DefaultServerStreamKbps
	}
	if c.RenderMs <= 0 {
		c.RenderMs = DefaultRenderMs
	}
	return c, nil
}
