package experiments

import (
	"fmt"

	"cloudfog/internal/core"
	"cloudfog/internal/workload"
)

// ProvisioningComparison runs the churn experiment of Figs. 13–15 once and
// returns its three figures, in order: cloud bandwidth, response latency
// and continuity vs the peak-hour player arrival rate, comparing CloudFog with the dynamic
// supernode provisioning strategy against the fixed-pool baseline.
func ProvisioningComparison(opts Options) ([]*Figure, error) {
	opts = opts.withDefaults()
	suffix := "a"
	if opts.Profile == ProfilePlanetLab {
		suffix = "b"
	}
	bandwidth := &Figure{
		ID: "fig13" + suffix, Title: "cloud bandwidth vs peak arrival rate (provisioning)",
		XLabel: "arrival rate (players/min)", YLabel: "cloud bandwidth (Mbps)",
	}
	latency := &Figure{
		ID: "fig14" + suffix, Title: "response latency vs peak arrival rate (provisioning)",
		XLabel: "arrival rate (players/min)", YLabel: "response latency (ms)",
	}
	continuity := &Figure{
		ID: "fig15" + suffix, Title: "continuity vs peak arrival rate (provisioning)",
		XLabel: "arrival rate (players/min)", YLabel: "continuity",
	}

	// Arrival rates and pool sizing per profile/scale.
	var (
		rates      []float64
		offPeak    float64
		population int
		fixedPool  int
		candidates int
	)
	switch {
	case opts.Profile == ProfilePlanetLab:
		rates, offPeak = []float64{2, 3, 4, 5, 6, 7}, 1
		population, fixedPool, candidates = 750, 10, 60
	case opts.Scale == ScaleFull:
		rates, offPeak = []float64{10, 20, 30, 40, 50, 60}, 5
		population, fixedPool, candidates = 10000, 100, 1000
	default:
		rates, offPeak = []float64{5, 10, 15}, 2
		population, fixedPool, candidates = 2000, 20, 200
	}

	variants := []struct {
		label     string
		provision bool
	}{
		{"CloudFog-provision", true},
		{"CloudFog/B", false},
	}
	_, cycles, warmup := opts.baseConfig()
	for _, v := range variants {
		sb := Series{Label: v.label}
		sl := Series{Label: v.label}
		sc := Series{Label: v.label}
		for _, rate := range rates {
			cfg, _, _ := opts.baseConfig()
			cfg.Mode = core.ModeCloudFog
			cfg.Players = population
			cfg.SupernodeCandidates = candidates
			cfg.Supernodes = candidates
			cfg.Arrivals = &workload.ArrivalScript{
				OffPeakPerMinute: offPeak,
				PeakPerMinute:    rate,
			}
			if v.provision {
				cfg.Strategies = core.Strategies{Provisioning: true}
			} else {
				cfg.Strategies = core.Strategies{}
				cfg.FixedSupernodePool = fixedPool
			}
			snap, _, rerr := runSystem(cfg, cycles, warmup)
			if rerr != nil {
				return nil, fmt.Errorf("%s rate=%g: %w", v.label, rate, rerr)
			}
			sb.X, sb.Y = append(sb.X, rate), append(sb.Y, snap.MeanCloudEgressMbps)
			sl.X, sl.Y = append(sl.X, rate), append(sl.Y, snap.MeanResponseLatencyMs)
			sc.X, sc.Y = append(sc.X, rate), append(sc.Y, snap.MeanContinuity)
		}
		bandwidth.Series = append(bandwidth.Series, sb)
		latency.Series = append(latency.Series, sl)
		continuity.Series = append(continuity.Series, sc)
	}
	return []*Figure{bandwidth, latency, continuity}, nil
}
