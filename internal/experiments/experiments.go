// Package experiments reproduces every table and figure of the CloudFog
// paper's evaluation (§4). Each experiment runs and returns its Figures:
// the same series the paper plots, as numbers. All lists every experiment
// once, in order; the cmd/cloudfogsim CLI and the tests read it.
//
// Experiments run at two scales: ScaleQuick (a proportionally shrunken
// deployment that preserves the ratios of the paper's setup and finishes in
// seconds — the default, and the scale the tests run) and ScaleFull (the
// paper's 10,000-player PeerSim / 750-node PlanetLab settings).
package experiments

import (
	"fmt"
	"io"
	"strings"

	"cloudfog/internal/core"
)

// Scale selects the experiment size.
type Scale int

const (
	// ScaleQuick shrinks the deployment ~5x and shortens the measurement
	// protocol; ratios (players : supernodes : CDN servers) match the
	// paper's.
	ScaleQuick Scale = iota + 1
	// ScaleFull is the paper's deployment and 28-cycle protocol.
	ScaleFull
)

// String returns the scale name.
func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScaleFull:
		return "full"
	default:
		return "unknown"
	}
}

// Profile selects the evaluation environment.
type Profile string

const (
	// ProfilePeerSim is the paper's simulation environment.
	ProfilePeerSim Profile = "peersim"
	// ProfilePlanetLab is the wide-area testbed profile.
	ProfilePlanetLab Profile = "planetlab"
)

// Options parameterizes an experiment run.
type Options struct {
	// Scale selects quick or full size. Defaults to ScaleQuick.
	Scale Scale
	// Profile selects PeerSim or PlanetLab. Defaults to ProfilePeerSim.
	Profile Profile
	// Seed drives all randomness. Defaults to 1.
	Seed uint64
	// Workers forwards to core.Config.Workers: a positive value is a fixed
	// streaming-evaluation worker pool, anything else sizes it by
	// GOMAXPROCS. Seeded figure outputs are bit-identical across all
	// settings (see the core equivalence tests).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = ScaleQuick
	}
	if o.Profile == "" {
		o.Profile = ProfilePeerSim
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// baseConfig returns the profile's Config at the chosen scale, plus the
// simulation protocol (cycles, warm-up) to use.
func (o Options) baseConfig() (cfg core.Config, cycles, warmup int) {
	switch o.Profile {
	case ProfilePlanetLab:
		cfg = core.PlanetLab()
	default:
		cfg = core.PeerSim()
	}
	cfg.Seed = o.Seed
	cfg.Workers = o.Workers
	if o.Scale == ScaleFull {
		return cfg, 28, 21
	}
	// Quick scale: shrink the PeerSim deployment ~8x; PlanetLab is small
	// already, so only its protocol shortens.
	if o.Profile != ProfilePlanetLab {
		cfg.Players = 1200
		cfg.Supernodes = 72
		cfg.SupernodeCandidates = 120
		cfg.CDNServers = 36
	}
	return cfg, 6, 3
}

// Experiment is one entry of All: the id cloudfogsim's -exp accepts and
// the run that produces the entry's figures.
type Experiment struct {
	ID  string
	Run func(Options) ([]*Figure, error)
}

// All is the table of experiments, in the order `cloudfogsim -exp all`
// runs them: the paper's figures, then the ablations of DESIGN §6 and the
// §5 extension. Each figure is produced by exactly one entry.
var All = []Experiment{
	{"table2", one(Table2)},
	{"fig4a", one(Fig4a)},
	{"fig4b", one(Fig4b)},
	{"fig5a", one(Fig5a)},
	{"fig5b", one(Fig5b)},
	{"fig6-8", SystemComparison},
	{"fig9a", one(Fig9a)},
	{"fig9b", one(Fig9b)},
	{"fig10", one(Fig10)},
	{"fig11", one(Fig11)},
	{"fig12", one(Fig12)},
	{"fig13-15", ProvisioningComparison},
	{"fig16a", one(Fig16a)},
	{"fig16b", one(Fig16b)},
	{"ablation-assignment", one(AblationAssignmentRefinement)},
	{"ablation-reputation", one(AblationReputationScope)},
	{"ablation-provisioning", one(AblationProvisioningSelection)},
	{"ablation-debounce", one(AblationAdaptationDebounce)},
	{"extension-deployment", one(ExtensionOptimalDeployment)},
}

func one(run func(Options) (*Figure, error)) func(Options) ([]*Figure, error) {
	return func(o Options) ([]*Figure, error) {
		fig, err := run(o)
		if err != nil {
			return nil, err
		}
		return []*Figure{fig}, nil
	}
}

// Series is one plotted line: a label and parallel X/Y points.
type Series struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// Figure is the numeric reproduction of one paper figure: the same series
// the paper plots. Its JSON form (-o json) is one stable object per figure.
type Figure struct {
	// ID is the paper figure identifier, e.g. "fig4a".
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// XLabel / YLabel name the axes.
	XLabel string `json:"xLabel"`
	YLabel string `json:"yLabel"`
	// Series are the plotted lines.
	Series []Series `json:"series"`
	// Note is a closing line of prose the text table prints under the
	// figure; JSON and CSV carry only the series.
	Note string `json:"-"`
}

// Render writes the figure as an aligned text table: one row per X value,
// one column per series.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		fmt.Fprintln(w, "  (no series)")
		return
	}
	// Header.
	fmt.Fprintf(w, "  %-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %14s", s.Label)
	}
	fmt.Fprintf(w, "   [%s]\n", f.YLabel)
	// Rows keyed by the first series' X values.
	for i, x := range f.Series[0].X {
		fmt.Fprintf(w, "  %-14.6g", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(w, " %14.6g", s.Y[i])
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	if f.Note != "" {
		fmt.Fprintln(w, f.Note)
	}
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}

// RenderCSV writes the figure as CSV: a header row of series labels, then
// one row per X value.
func (f *Figure) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "%s", csvEscape(f.XLabel))
	for _, s := range f.Series {
		fmt.Fprintf(w, ",%s", csvEscape(s.Label))
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return
	}
	for i, x := range f.Series[0].X {
		fmt.Fprintf(w, "%g", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(w, ",%g", s.Y[i])
			} else {
				fmt.Fprint(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// runSystem builds and runs one simulated deployment, returning its metric
// snapshot. It exists so every experiment constructs systems the same way.
func runSystem(cfg core.Config, cycles, warmup int) (core.Snapshot, *core.Metrics, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Snapshot{}, nil, fmt.Errorf("build system: %w", err)
	}
	m := sys.Run(cycles, warmup)
	return m.Snapshot(), m, nil
}
