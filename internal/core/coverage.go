package core

import (
	"math"

	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/netmodel"
	"cloudfog/internal/rng"
	"cloudfog/internal/streaming"
)

// CoverageStudy reproduces the static user-coverage analysis of Fig. 4/5:
// given a player population, it computes for each player the best (lowest)
// unloaded network response latency achievable from a set of serving points
// — datacenters or supernodes — and reports the fraction of players whose
// latency meets each requirement threshold.
//
// "A user is covered by a datacenter or a supernode if the response latency
// is no more than the latency requirement of the user's game."
type CoverageStudy struct {
	cfg     Config
	model   *netmodel.Model
	players []*netmodel.Endpoint
}

// NewCoverageStudy samples a player population from cfg (Players, Seed,
// Net are used).
func NewCoverageStudy(cfg Config) (*CoverageStudy, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	master := rng.New(cfg.Seed)
	placer := geo.NewPlacer(nil)
	rPlace := master.SplitNamed("place")
	rNet := master.SplitNamed("net")
	cs := &CoverageStudy{
		cfg:   cfg,
		model: netmodel.NewModel(cfg.Net, cfg.Seed^0xc10dF09),
	}
	cs.players = make([]*netmodel.Endpoint, cfg.Players)
	for i := range cs.players {
		cs.players[i] = netmodel.NewPlayerEndpoint(i, placer.PlacePlayer(rPlace), rNet)
	}
	return cs, nil
}

// bestResponseMs returns the lowest unloaded network response latency the
// player can get from any of the serving endpoints: action one-way +
// render + stream one-way + transmission + mean jitter, at the given
// bitrate.
func (cs *CoverageStudy) bestResponseMs(r *rng.Rand, p *netmodel.Endpoint, servers []*netmodel.Endpoint, perStreamKbps, bitrate float64) float64 {
	best := math.Inf(1)
	for _, srv := range servers {
		oneway := cs.model.OneWayMs(r, srv, p)
		dist := geo.Distance(srv.Loc, p.Loc)
		pathCap := p.DownloadKbps * (1 - cs.cfg.WideAreaBWPenalty*math.Min(1, dist/wideAreaFullPenaltyKm))
		link := streaming.Link{
			OneWayMs:      oneway,
			EffectiveKbps: math.Min(perStreamKbps, pathCap),
			BaseJitterMs:  streaming.DefaultBaseJitterMs + cs.cfg.JitterPerOnewayMs*oneway,
		}
		resp := oneway + cs.cfg.RenderMs + streaming.NetworkLatencyMs(link, bitrate)
		if resp < best {
			best = resp
		}
	}
	return best
}

// CoverageVsDatacenters returns, for each threshold in thresholdsMs, the
// fraction of players covered when nDatacenters datacenters serve the
// population directly (the Fig. 4(a)/5(a) series).
func (cs *CoverageStudy) CoverageVsDatacenters(nDatacenters int, thresholdsMs []float64) []float64 {
	sites := geo.DatacenterSites(nDatacenters)
	servers := make([]*netmodel.Endpoint, len(sites))
	for i, site := range sites {
		servers[i] = netmodel.NewDatacenterEndpoint(1_000_000+i, site)
	}
	return cs.coverage(servers, cs.cfg.ServerStreamKbps, thresholdsMs)
}

// CoverageVsSupernodes returns, for each threshold, the fraction of players
// covered when nSupernodes supernodes (placed like the player population)
// serve them, alongside the default datacenters (the Fig. 4(b)/5(b)
// series). A player is covered if EITHER a supernode or a datacenter meets
// the threshold — matching the paper's "covered by a datacenter or a
// supernode".
func (cs *CoverageStudy) CoverageVsSupernodes(nSupernodes int, thresholdsMs []float64) []float64 {
	master := rng.New(cs.cfg.Seed + 7)
	placer := geo.NewPlacer(nil)
	rFog := master.SplitNamed("fog")
	servers := make([]*netmodel.Endpoint, 0, nSupernodes+cs.cfg.Datacenters)
	for i := 0; i < nSupernodes; i++ {
		loc := placer.PlacePlayer(rFog)
		if rFog.Bool(0.4) {
			loc = placer.PlaceUniform(rFog)
		}
		servers = append(servers, netmodel.NewSupernodeEndpoint(2_000_000+i, loc, rFog))
	}
	for i, site := range geo.DatacenterSites(cs.cfg.Datacenters) {
		servers = append(servers, netmodel.NewDatacenterEndpoint(1_000_000+i, site))
	}
	// Supernodes stream one video at a time in the unloaded analysis; use
	// the server per-stream rate as the cap for both server kinds.
	return cs.coverage(servers, cs.cfg.ServerStreamKbps, thresholdsMs)
}

func (cs *CoverageStudy) coverage(servers []*netmodel.Endpoint, perStreamKbps float64, thresholdsMs []float64) []float64 {
	// Use the mid-ladder bitrate as the paper's representative stream.
	bitrate := game.MustQuality(4).BitrateKbps
	covered := make([]int, len(thresholdsMs))
	scratch := rng.New(0) // reseeded by every path draw
	for _, p := range cs.players {
		best := cs.bestResponseMs(scratch, p, servers, perStreamKbps, bitrate)
		for ti, th := range thresholdsMs {
			if best <= th {
				covered[ti]++
			}
		}
	}
	out := make([]float64, len(thresholdsMs))
	for i, c := range covered {
		out[i] = float64(c) / float64(len(cs.players))
	}
	return out
}
