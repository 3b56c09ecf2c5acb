package experiments

import (
	"fmt"

	"cloudfog/internal/core"
)

// latencyRequirements are the network response-latency thresholds swept by
// Fig. 4 and Fig. 5 (the latency requirements of the Table 2 game genres).
var latencyRequirements = []float64{30, 50, 70, 90, 110}

// Fig4a reproduces Fig. 4(a): user coverage vs. number of datacenters on
// the PeerSim profile, one series per latency requirement.
func Fig4a(opts Options) (*Figure, error) {
	return coverageFigure(opts, ProfilePeerSim, "fig4a", "datacenters",
		[]int{1, 5, 10, 15, 20, 25}, (*core.CoverageStudy).CoverageVsDatacenters)
}

// Fig5a reproduces Fig. 5(a): user coverage vs. number of datacenters on
// the PlanetLab profile.
func Fig5a(opts Options) (*Figure, error) {
	return coverageFigure(opts, ProfilePlanetLab, "fig5a", "datacenters",
		[]int{1, 2, 4, 8, 12, 16}, (*core.CoverageStudy).CoverageVsDatacenters)
}

// Fig4b reproduces Fig. 4(b): user coverage vs. number of supernodes on
// the PeerSim profile (the default datacenters remain available).
func Fig4b(opts Options) (*Figure, error) {
	return coverageFigure(opts, ProfilePeerSim, "fig4b", "supernodes",
		[]int{0, 50, 100, 200, 400, 600, 800, 1000}, (*core.CoverageStudy).CoverageVsSupernodes)
}

// Fig5b reproduces Fig. 5(b): user coverage vs. number of supernodes on
// the PlanetLab profile.
func Fig5b(opts Options) (*Figure, error) {
	return coverageFigure(opts, ProfilePlanetLab, "fig5b", "supernodes",
		[]int{0, 10, 20, 40, 60, 80, 100}, (*core.CoverageStudy).CoverageVsSupernodes)
}

// coverageFigure sweeps one coverage study over counts serving points of
// the kind named by what, one series per latency requirement.
func coverageFigure(opts Options, profile Profile, id, what string, counts []int,
	cover func(*core.CoverageStudy, int, []float64) []float64) (*Figure, error) {
	opts = opts.withDefaults()
	opts.Profile = profile
	cfg, _, _ := opts.baseConfig()
	study, err := core.NewCoverageStudy(cfg)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     id,
		Title:  "user coverage vs number of " + what,
		XLabel: "#" + what,
		YLabel: "ratio of covered players",
	}
	for _, req := range latencyRequirements {
		fig.Series = append(fig.Series, Series{Label: fmt.Sprintf("%.0f ms", req)})
	}
	for _, n := range counts {
		cov := cover(study, n, latencyRequirements)
		for i := range latencyRequirements {
			fig.Series[i].X = append(fig.Series[i].X, float64(n))
			fig.Series[i].Y = append(fig.Series[i].Y, cov[i])
		}
	}
	return fig, nil
}
