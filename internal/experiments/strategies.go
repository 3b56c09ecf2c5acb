package experiments

import (
	"fmt"

	"cloudfog/internal/core"
)

// loadSweepFor returns the "number of supporting players of a supernode"
// axis of Figs. 10 and 11 (coarser at quick scale).
func loadSweepFor(opts Options) []int {
	if opts.Scale == ScaleFull {
		return []int{5, 10, 15, 20, 25, 30}
	}
	return []int{5, 10, 20, 30}
}

// strategyLoadRun runs a CloudFog deployment whose supernodes all have the
// forced capacity `load`, sized so that supernode slots carry the player
// population with modest slack, and returns the satisfied-player fraction.
func strategyLoadRun(opts Options, strategies core.Strategies, load int) (core.Snapshot, error) {
	cfg, cycles, warmup := opts.baseConfig()
	if opts.Scale != ScaleFull {
		// Reputation needs several rated sessions per player before the
		// ranking means anything; extend the quick protocol a little.
		cycles, warmup = 12, 7
	}
	players := 800
	if opts.Scale == ScaleFull {
		players = 6000
	}
	if opts.Profile == ProfilePlanetLab {
		players = 600
	}
	cfg.Players = players
	cfg.AlwaysOn = true
	cfg.Mode = core.ModeCloudFog
	cfg.Strategies = strategies
	cfg.ForcedSupernodeLoad = load
	cfg.Supernodes = players*13/(load*10) + 1 // ~30% slack in slots
	cfg.SupernodeCandidates = cfg.Supernodes
	snap, _, err := runSystem(cfg, cycles, warmup)
	return snap, err
}

// Fig10 reproduces Fig. 10: percentage of satisfied players vs the number
// of supporting players per supernode, with and without reputation-based
// supernode selection.
func Fig10(opts Options) (*Figure, error) {
	return strategyFigure(opts, "fig10", "effect of reputation-based supernode selection",
		loadSweepFor(opts), core.Strategies{Reputation: true}, "CloudFog-reputation", "CloudFog/B")
}

// Fig11 reproduces Fig. 11: percentage of satisfied players vs per-
// supernode load, with and without receiver-driven encoding rate
// adaptation.
func Fig11(opts Options) (*Figure, error) {
	return strategyFigure(opts, "fig11", "effect of receiver-driven encoding rate adaptation",
		loadSweepFor(opts), core.Strategies{Adaptation: true}, "CloudFog-adapt", "CloudFog/B")
}

// strategyFigure plots the satisfied-player fraction at each per-supernode
// load with the strategies on (series onLabel) and with none (offLabel).
func strategyFigure(opts Options, id, title string, loads []int, on core.Strategies, onLabel, offLabel string) (*Figure, error) {
	opts = opts.withDefaults()
	with := Series{Label: onLabel}
	without := Series{Label: offLabel}
	for _, load := range loads {
		sOn, err := strategyLoadRun(opts, on, load)
		if err != nil {
			return nil, fmt.Errorf("%s load=%d %s: %w", id, load, onLabel, err)
		}
		sOff, err := strategyLoadRun(opts, core.Strategies{}, load)
		if err != nil {
			return nil, fmt.Errorf("%s load=%d %s: %w", id, load, offLabel, err)
		}
		x := float64(load)
		with.X, with.Y = append(with.X, x), append(with.Y, sOn.SatisfiedFraction)
		without.X, without.Y = append(without.X, x), append(without.Y, sOff.SatisfiedFraction)
	}
	return &Figure{
		ID: id, Title: title,
		XLabel: "players per supernode", YLabel: "satisfied players (fraction)",
		Series: []Series{with, without},
	}, nil
}

// Fig12 reproduces Fig. 12: the response-latency decomposition (server
// communication latency vs the rest) for different numbers of servers in a
// datacenter, with and without the social-network-based server assignment.
func Fig12(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	fig := &Figure{
		ID: "fig12", Title: "effect of social-network-based server assignment",
		XLabel: "servers per datacenter", YLabel: "latency (ms)",
	}
	serverCounts := []int{50, 100, 150, 200}
	if opts.Scale != ScaleFull {
		serverCounts = []int{25, 50, 100}
	}
	serverOn := Series{Label: "server latency w/"}
	otherOn := Series{Label: "other latency w/"}
	serverOff := Series{Label: "server latency w/o"}
	otherOff := Series{Label: "other latency w/o"}
	for _, z := range serverCounts {
		run := func(social bool) (core.Snapshot, error) {
			cfg, cycles, warmup := opts.baseConfig()
			cfg.Players = 800
			if opts.Scale == ScaleFull {
				cfg.Players = 6000
			}
			cfg.AlwaysOn = true
			cfg.Datacenters = 1
			cfg.ServersPerDC = z
			cfg.Mode = core.ModeCloudFog
			cfg.Strategies = core.Strategies{SocialAssignment: social}
			snap, _, err := runSystem(cfg, cycles, warmup)
			return snap, err
		}
		on, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("fig12 z=%d w/: %w", z, err)
		}
		off, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("fig12 z=%d w/o: %w", z, err)
		}
		x := float64(z)
		serverOn.X, serverOn.Y = append(serverOn.X, x), append(serverOn.Y, on.MeanServerCommMs)
		otherOn.X, otherOn.Y = append(otherOn.X, x), append(otherOn.Y, on.MeanOtherLatencyMs)
		serverOff.X, serverOff.Y = append(serverOff.X, x), append(serverOff.Y, off.MeanServerCommMs)
		otherOff.X, otherOff.Y = append(otherOff.X, x), append(otherOff.Y, off.MeanOtherLatencyMs)
	}
	fig.Series = []Series{serverOn, otherOn, serverOff, otherOff}
	return fig, nil
}
