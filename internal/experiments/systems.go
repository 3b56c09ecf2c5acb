package experiments

import (
	"fmt"

	"cloudfog/internal/core"
)

// systemVariant is one compared system of Figs. 6–8.
type systemVariant struct {
	label      string
	mode       core.Mode
	strategies core.Strategies
	// cdnServers overrides the CDN server count (CDN-45 / CDN-80).
	cdnServers int
}

// variantsFor returns the systems compared by Figs. 6–8 for a profile,
// scaled. The extra CDN variants are the paper's scarce-server baselines
// (fewer servers than the main CDN deployment).
func variantsFor(opts Options, cfg core.Config, includeAdvanced bool) []systemVariant {
	small, tiny := cfg.CDNServers/7, cfg.CDNServers/4
	if small < 2 {
		small = 2
	}
	if tiny <= small {
		tiny = small + 2
	}
	vs := []systemVariant{
		{label: "Cloud", mode: core.ModeCloud},
		{label: fmt.Sprintf("CDN-%d", small), mode: core.ModeCDN, cdnServers: small},
		{label: fmt.Sprintf("CDN-%d", tiny), mode: core.ModeCDN, cdnServers: tiny},
		{label: "CDN", mode: core.ModeCDN, cdnServers: cfg.CDNServers},
		{label: "CloudFog/B", mode: core.ModeCloudFog},
	}
	if includeAdvanced {
		vs = append(vs, systemVariant{
			label: "CloudFog/A", mode: core.ModeCloudFog, strategies: core.AllStrategies(),
		})
	}
	return vs
}

// playerSweep returns the concurrent-player counts of the Figs. 6–8 x-axis.
func playerSweep(opts Options, cfg core.Config) []int {
	if opts.Profile == ProfilePlanetLab {
		return []int{150, 300, 450, 600, 750}
	}
	if opts.Scale == ScaleFull {
		return []int{2000, 4000, 6000, 8000, 10000}
	}
	return []int{400, 800, 1200}
}

// SystemComparison runs the Figs. 6–8 sweep once and returns its three
// figures, in order: server bandwidth consumption, average response latency
// and playback continuity vs concurrent players.
func SystemComparison(opts Options) ([]*Figure, error) {
	opts = opts.withDefaults()
	base, cycles, warmup := opts.baseConfig()
	suffix := "a"
	if opts.Profile == ProfilePlanetLab {
		suffix = "b"
	}
	bandwidth := &Figure{
		ID: "fig6" + suffix, Title: "server bandwidth consumption vs concurrent players",
		XLabel: "#players", YLabel: "cloud bandwidth (Mbps)",
	}
	latency := &Figure{
		ID: "fig7" + suffix, Title: "average response latency vs concurrent players",
		XLabel: "#players", YLabel: "response latency (ms)",
	}
	continuity := &Figure{
		ID: "fig8" + suffix, Title: "playback continuity vs concurrent players",
		XLabel: "#players", YLabel: "continuity",
	}

	players := playerSweep(opts, base)
	for _, v := range variantsFor(opts, base, true) {
		sb := Series{Label: v.label}
		sl := Series{Label: v.label}
		sc := Series{Label: v.label}
		for _, n := range players {
			cfg := base
			cfg.Mode = v.mode
			cfg.Strategies = v.strategies
			cfg.Players = n
			cfg.AlwaysOn = true
			if v.cdnServers > 0 {
				cfg.CDNServers = v.cdnServers
			}
			snap, _, rerr := runSystem(cfg, cycles, warmup)
			if rerr != nil {
				return nil, fmt.Errorf("%s players=%d: %w", v.label, n, rerr)
			}
			x := float64(n)
			sb.X, sb.Y = append(sb.X, x), append(sb.Y, snap.MeanCloudEgressMbps)
			sl.X, sl.Y = append(sl.X, x), append(sl.Y, snap.MeanResponseLatencyMs)
			sc.X, sc.Y = append(sc.X, x), append(sc.Y, snap.MeanContinuity)
		}
		// Fig. 6 plots CloudFog once: basic and advanced consume the same
		// update bandwidth in the paper's accounting.
		if v.label != "CloudFog/A" {
			bandwidth.Series = append(bandwidth.Series, sb)
		}
		latency.Series = append(latency.Series, sl)
		continuity.Series = append(continuity.Series, sc)
	}
	return []*Figure{bandwidth, latency, continuity}, nil
}
