package experiments

import (
	"fmt"

	"cloudfog/internal/assignment"
	"cloudfog/internal/core"
	"cloudfog/internal/economics"
	"cloudfog/internal/provisioning"
	"cloudfog/internal/rng"
	"cloudfog/internal/social"
)

// AblationAssignmentRefinement compares the three stages of the server
// assignment algorithm — greedy-only, greedy + the paper's swap
// refinement, and the full pipeline with label-propagation polish — by the
// modularity Γ and cross-server fraction achieved on a guild graph.
func AblationAssignmentRefinement(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	n := 1200
	if opts.Scale == ScaleFull {
		n = 6000
	}
	r := rng.New(opts.Seed)
	g := social.Generate(social.GenerateConfig{N: n, Skew: 1.5}, r)
	fig := &Figure{
		ID: "ablation-assignment", Title: "server assignment: greedy vs refined vs polished",
		XLabel: "servers", YLabel: "value",
	}
	gamma := map[string]*Series{
		"Γ greedy":    {Label: "Γ greedy"},
		"Γ refined":   {Label: "Γ refined"},
		"Γ polished":  {Label: "Γ polished"},
		"cross final": {Label: "cross final"},
	}
	for _, z := range []int{25, 50, 100} {
		greedy, err := assignment.Assign(g, assignment.Config{Servers: z, SkipRefinement: true, PolishSweeps: -1}, rng.New(opts.Seed+1))
		if err != nil {
			return nil, err
		}
		refined, err := assignment.Assign(g, assignment.Config{Servers: z, PolishSweeps: -1}, rng.New(opts.Seed+1))
		if err != nil {
			return nil, err
		}
		polished, err := assignment.Assign(g, assignment.Config{Servers: z}, rng.New(opts.Seed+1))
		if err != nil {
			return nil, err
		}
		x := float64(z)
		add := func(key string, y float64) {
			s := gamma[key]
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		add("Γ greedy", greedy.Modularity)
		add("Γ refined", refined.Modularity)
		add("Γ polished", polished.Modularity)
		add("cross final", assignment.CrossServerFraction(g, polished.Community))
	}
	fig.Series = []Series{*gamma["Γ greedy"], *gamma["Γ refined"], *gamma["Γ polished"], *gamma["cross final"]}
	return fig, nil
}

// AblationReputationScope compares the paper's per-player (sybil-proof)
// reputation against the global-aggregation strawman it rejects, measuring
// the satisfied-player fraction under per-supernode load.
func AblationReputationScope(opts Options) (*Figure, error) {
	return strategyFigure(opts, "ablation-reputation", "per-player vs global reputation vs none",
		[]int{10, 20, 30}, core.Strategies{Reputation: true}, "per-player", "none")
}

// AblationProvisioningSelection compares the paper's rank-probability
// supernode selection (Eq. 16) against a plain top-k, measuring how many
// of the busiest candidates each strategy picks — Eq. 16 deliberately
// trades some of that concentration for geographic spread.
func AblationProvisioningSelection(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	r := rng.New(opts.Seed)
	n := 200
	cands := make([]provisioning.Candidate, n)
	for i := range cands {
		cands[i] = provisioning.Candidate{ID: i, PrevSupported: n - i}
	}
	fig := &Figure{
		ID: "ablation-provisioning", Title: "rank-probability (Eq.16) vs top-k selection",
		XLabel: "selection size", YLabel: "mean rank of selected (lower = busier)",
	}
	eq16 := Series{Label: "Eq.16"}
	topk := Series{Label: "top-k"}
	for _, k := range []int{10, 25, 50, 100} {
		var sumRank float64
		const trials = 50
		for tr := 0; tr < trials; tr++ {
			for _, c := range provisioning.Select(cands, k, r) {
				sumRank += float64(n - c.PrevSupported)
			}
		}
		meanEq16 := sumRank / float64(trials*k)
		var sumTop float64
		for _, c := range provisioning.SelectTopK(cands, k) {
			sumTop += float64(n - c.PrevSupported)
		}
		meanTop := sumTop / float64(k)
		eq16.X, eq16.Y = append(eq16.X, float64(k)), append(eq16.Y, meanEq16)
		topk.X, topk.Y = append(topk.X, float64(k)), append(topk.Y, meanTop)
	}
	fig.Series = []Series{eq16, topk}
	return fig, nil
}

// AblationAdaptationDebounce measures the bitrate-switch churn with and
// without the consecutive-estimate debounce the controller adds to the
// paper's adjustment rules.
func AblationAdaptationDebounce(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	fig := &Figure{
		ID: "ablation-debounce", Title: "adaptation debounce: switches per session",
		XLabel: "debounce (consecutive estimates)", YLabel: "mean bitrate switches per session",
	}
	series := Series{Label: "switches"}
	sat := Series{Label: "satisfied fraction"}
	for _, debounce := range []int{1, 3, 6} {
		cfg, cycles, warmup := opts.baseConfig()
		cfg.Players = 600
		cfg.AlwaysOn = true
		cfg.Mode = core.ModeCloudFog
		cfg.Strategies = core.Strategies{Adaptation: true}
		cfg.AdaptationDebounce = debounce
		snap, m, err := runSystem(cfg, cycles, warmup)
		if err != nil {
			return nil, err
		}
		series.X = append(series.X, float64(debounce))
		series.Y = append(series.Y, m.BitrateSwitches.Mean())
		sat.X = append(sat.X, float64(debounce))
		sat.Y = append(sat.Y, snap.SatisfiedFraction)
	}
	fig.Series = []Series{series, sat}
	return fig, nil
}

// ExtensionOptimalDeployment answers the paper's §5 future-work question —
// how many supernodes should the provider itself deploy — by combining the
// Eq. 3 saving maximization with the geographic coverage curve measured by
// the Fig. 4(b) study: coverage n(m) is sampled at increasing fleet sizes,
// interpolated, and swept for the saving-maximizing fleet.
func ExtensionOptimalDeployment(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	cfg, _, _ := opts.baseConfig()
	study, err := core.NewCoverageStudy(cfg)
	if err != nil {
		return nil, err
	}
	// Sample the coverage curve at the general 90 ms requirement.
	samples := []int{0, 25, 50, 100, 200, 400, 800}
	coverage := make([]float64, len(samples))
	for i, m := range samples {
		coverage[i] = study.CoverageVsSupernodes(m, []float64{90})[0]
	}
	covered := func(m int) int {
		if m <= 0 {
			return int(coverage[0] * float64(cfg.Players))
		}
		for i := 1; i < len(samples); i++ {
			if m <= samples[i] {
				frac := float64(m-samples[i-1]) / float64(samples[i]-samples[i-1])
				c := coverage[i-1] + frac*(coverage[i]-coverage[i-1])
				return int(c * float64(cfg.Players))
			}
		}
		return int(coverage[len(coverage)-1] * float64(cfg.Players))
	}
	model := economics.DeploymentModel{
		ServerBandwidthValue: 0.002,
		SupernodeReward:      0.001,
		StreamRate:           1200,
		UpdateRate:           cfg.UpdateKbps,
		SupernodeUpload:      24000,
		CoveredPlayers:       covered,
	}
	best, sweep, err := economics.OptimalDeployment(model, 800)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "extension-deployment",
		Title: fmt.Sprintf("provider saving vs fleet size (Eq. 3 over measured coverage); optimum m*=%d saving=%.0f",
			best.Supernodes, best.SavingUSD),
		XLabel: "supernodes", YLabel: "value",
	}
	saving := Series{Label: "saving $/unit-time"}
	coveredSeries := Series{Label: "covered players"}
	for _, p := range sweep {
		if p.Supernodes%25 != 0 {
			continue
		}
		saving.X = append(saving.X, float64(p.Supernodes))
		saving.Y = append(saving.Y, p.SavingUSD)
		coveredSeries.X = append(coveredSeries.X, float64(p.Supernodes))
		coveredSeries.Y = append(coveredSeries.Y, float64(p.Covered))
	}
	fig.Series = []Series{saving, coveredSeries}
	return fig, nil
}
