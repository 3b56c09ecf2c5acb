package experiments

import (
	"fmt"
)

// setupSeries are the four latencies Fig. 9 reports.
var setupSeries = []string{"server assignment", "supernode join", "player join", "migration"}

// Fig9a reproduces Fig. 9(a): system setup and player join latencies vs the
// number of players on the PeerSim profile. Supernodes scale with players
// (6% of the population, the paper's 600:10,000 ratio); supernode failures
// are injected each measured cycle to exercise migration.
func Fig9a(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	opts.Profile = ProfilePeerSim
	var players []int
	if opts.Scale == ScaleFull {
		players = []int{1000, 2000, 3000, 4000, 5000, 6000}
	} else {
		players = []int{400, 800, 1200}
	}
	fig := &Figure{
		ID: "fig9a", Title: "setup latencies vs number of players",
		XLabel: "#players", YLabel: "latency (ms)",
	}
	for _, label := range setupSeries {
		fig.Series = append(fig.Series, Series{Label: label})
	}
	base, cycles, warmup := opts.baseConfig()
	for _, n := range players {
		cfg := base
		cfg.Players = n
		cfg.Supernodes = n * 6 / 100
		cfg.SupernodeCandidates = n / 10
		cfg.Strategies.SocialAssignment = true
		cfg.Strategies.Provisioning = true
		cfg.FailSupernodesPerCycle = max(1, cfg.Supernodes/10)
		snap, _, err := runSystem(cfg, cycles, warmup)
		if err != nil {
			return nil, fmt.Errorf("fig9a players=%d: %w", n, err)
		}
		appendSetupPoint(fig, float64(n), snap.MeanServerAssignMs,
			snap.MeanSupernodeJoinMs, snap.MeanPlayerJoinMs, snap.MeanMigrationMs)
	}
	return fig, nil
}

// Fig9b reproduces Fig. 9(b): setup latencies vs the number of supernodes
// on the PlanetLab profile.
func Fig9b(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	opts.Profile = ProfilePlanetLab
	supernodes := []int{10, 20, 30, 40, 50}
	if opts.Scale != ScaleFull {
		supernodes = []int{10, 25, 40}
	}
	fig := &Figure{
		ID: "fig9b", Title: "setup latencies vs number of supernodes",
		XLabel: "#supernodes", YLabel: "latency (ms)",
	}
	for _, label := range setupSeries {
		fig.Series = append(fig.Series, Series{Label: label})
	}
	base, cycles, warmup := opts.baseConfig()
	for _, ns := range supernodes {
		cfg := base
		cfg.Supernodes = ns
		cfg.SupernodeCandidates = ns * 2
		cfg.Strategies.SocialAssignment = true
		cfg.Strategies.Provisioning = true
		cfg.FailSupernodesPerCycle = max(1, ns/10)
		snap, _, err := runSystem(cfg, cycles, warmup)
		if err != nil {
			return nil, fmt.Errorf("fig9b supernodes=%d: %w", ns, err)
		}
		appendSetupPoint(fig, float64(ns), snap.MeanServerAssignMs,
			snap.MeanSupernodeJoinMs, snap.MeanPlayerJoinMs, snap.MeanMigrationMs)
	}
	return fig, nil
}

func appendSetupPoint(fig *Figure, x, assign, snJoin, playerJoin, migration float64) {
	ys := []float64{assign, snJoin, playerJoin, migration}
	for i := range fig.Series {
		fig.Series[i].X = append(fig.Series[i].X, x)
		fig.Series[i].Y = append(fig.Series[i].Y, ys[i])
	}
}
