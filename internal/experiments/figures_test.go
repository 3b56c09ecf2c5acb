package experiments

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"sync"
	"testing"
)

// Every shape predicate below runs on two sets of figures, as the subtests
// "quick" and "full":
//   - quick: one shared run of All at quick scale, the test scale;
//   - full: the committed output of `cloudfogsim -exp all -scale full -seed 1
//     -o json`, the paper's scale, read back with no simulation run.
//
// The predicates check the shapes the paper reports, not absolute values.
// A change that moves a figure re-blesses the golden (EXPERIMENTS.md).

const goldenPath = "testdata/full_seed1.jsonl"

// quickOpts is the test scale, on a worker pool:
// TestFigureOutputsParallelEquivalence reruns entries on one worker
// against it.
var quickOpts = Options{Scale: ScaleQuick, Seed: 1, Workers: 4}

// figureSet is one run's figures, in order.
type figureSet []*Figure

func (s figureSet) get(t *testing.T, id string) *Figure {
	t.Helper()
	for _, fig := range s {
		if fig.ID == id {
			return fig
		}
	}
	t.Fatalf("no figure %s", id)
	return nil
}

var (
	quickOnce    sync.Once
	quickByEntry map[string][]*Figure
	quickSet     figureSet
	quickErr     error

	goldenOnce sync.Once
	goldenSet  figureSet
	goldenErr  error
)

func quickFigures(t *testing.T) figureSet {
	t.Helper()
	quickOnce.Do(func() {
		quickByEntry = make(map[string][]*Figure)
		for _, e := range All {
			figs, err := e.Run(quickOpts)
			if err != nil {
				quickErr = errors.Join(quickErr, err)
				continue
			}
			quickByEntry[e.ID] = figs
			quickSet = append(quickSet, figs...)
		}
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickSet
}

func goldenFigures(t *testing.T) figureSet {
	t.Helper()
	goldenOnce.Do(func() {
		f, err := os.Open(goldenPath)
		if err != nil {
			goldenErr = err
			return
		}
		defer f.Close()
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		for {
			fig := new(Figure)
			if err := dec.Decode(fig); err == io.EOF {
				return
			} else if err != nil {
				goldenErr = err
				return
			}
			goldenSet = append(goldenSet, fig)
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenSet
}

// eachScale runs check on the quick run and on the full-scale golden.
func eachScale(t *testing.T, check func(t *testing.T, figs figureSet)) {
	t.Run("quick", func(t *testing.T) { check(t, quickFigures(t)) })
	t.Run("full", func(t *testing.T) { check(t, goldenFigures(t)) })
}

func first(s Series) float64 { return s.Y[0] }
func last(s Series) float64  { return s.Y[len(s.Y)-1] }

func seriesByLabel(t *testing.T, fig *Figure, label string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q", fig.ID, label)
	return Series{}
}

// TestGoldenHoldsTheTable: the golden has every figure of All, in the
// table's order, so an entry added or dropped without a re-bless fails
// here and not only in the full-scale CI job.
func TestGoldenHoldsTheTable(t *testing.T) {
	quick, golden := quickFigures(t), goldenFigures(t)
	var q, g []string
	for _, fig := range quick {
		q = append(q, fig.ID)
	}
	for _, fig := range golden {
		g = append(g, fig.ID)
	}
	if !reflect.DeepEqual(q, g) {
		t.Errorf("golden figures %v, the table emits %v", g, q)
	}
}

// TestFigureOutputsParallelEquivalence is the figure-level half of the
// parallel determinism contract (core/parallel.go): every plotted number a
// figure emits must be bit-identical between the single worker that runs on
// the caller (Workers = 1) and the worker pool of the shared quick run. The
// core equivalence tests pin snapshots and state digests; this pins what
// actually leaves the repo — the figure series. Subtests are named after the
// first figure of their entry.
func TestFigureOutputsParallelEquivalence(t *testing.T) {
	quickFigures(t)
	for _, c := range []struct{ name, id string }{
		{"fig6", "fig6-8"},    // system comparison (all three modes)
		{"fig10", "fig10"},    // reputation strategy sweep
		{"fig13", "fig13-15"}, // provisioning under churn
		{"fig4a", "fig4a"},    // supernode coverage
	} {
		t.Run(c.name, func(t *testing.T) {
			var run func(Options) ([]*Figure, error)
			for _, e := range All {
				if e.ID == c.id {
					run = e.Run
				}
			}
			seq, err := run(Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if par := quickByEntry[c.id]; !reflect.DeepEqual(seq, par) {
				t.Errorf("%s diverged between 1 and %d workers\n seq: %+v\n par: %+v",
					c.id, quickOpts.Workers, seq, par)
			}
		})
	}
}

func TestTable2(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "table2")
		if len(fig.Series) != 3 {
			t.Fatalf("table2 series = %d", len(fig.Series))
		}
		if len(fig.Series[0].X) != 5 {
			t.Fatalf("table2 rows = %d", len(fig.Series[0].X))
		}
		if fig.Series[0].Y[4] != 1800 {
			t.Errorf("top bitrate = %v", fig.Series[0].Y[4])
		}
	})
}

func TestFig4aShape(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "fig4a")
		if len(fig.Series) != 5 {
			t.Fatalf("series = %d", len(fig.Series))
		}
		for _, s := range fig.Series {
			// Coverage grows (weakly) with datacenters.
			if last(s) < first(s)-1e-9 {
				t.Errorf("coverage fell with more datacenters for %s", s.Label)
			}
			for _, y := range s.Y {
				if y < 0 || y > 1 {
					t.Fatalf("coverage out of range: %v", y)
				}
			}
		}
		// Stricter requirement => lower coverage at every x.
		strict := seriesByLabel(t, fig, "30 ms")
		loose := seriesByLabel(t, fig, "110 ms")
		for i := range strict.Y {
			if strict.Y[i] > loose.Y[i]+1e-9 {
				t.Errorf("30ms coverage above 110ms at x=%v", strict.X[i])
			}
		}
	})
}

func TestFig4bShape(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "fig4b")
		for _, s := range fig.Series {
			if last(s) < first(s)-1e-9 {
				t.Errorf("coverage fell with more supernodes for %s", s.Label)
			}
		}
		// Supernodes must add substantial coverage at mid requirements: the
		// paper's headline (supernodes vs building datacenters).
		mid := seriesByLabel(t, fig, "50 ms")
		if last(mid)-first(mid) < 0.2 {
			t.Errorf("supernodes added only %v coverage at 50 ms", last(mid)-first(mid))
		}
	})
}

func TestFig5Shapes(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		for _, id := range []string{"fig5a", "fig5b"} {
			fig := figs.get(t, id)
			for _, s := range fig.Series {
				if last(s) < first(s)-1e-9 {
					t.Errorf("%s: coverage fell for %s", fig.ID, s.Label)
				}
			}
		}
	})
}

func TestSystemComparisonShapes(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		bw, lat, cont := figs.get(t, "fig6a"), figs.get(t, "fig7a"), figs.get(t, "fig8a")
		// Fig 6: bandwidth ordering Cloud > CDN > CloudFog at the top player
		// count.
		cloud := seriesByLabel(t, bw, "Cloud")
		cdn := seriesByLabel(t, bw, "CDN")
		fogB := seriesByLabel(t, bw, "CloudFog/B")
		if !(last(cloud) > last(cdn) && last(cdn) > last(fogB)) {
			t.Errorf("fig6 ordering broken: Cloud=%v CDN=%v CloudFog=%v",
				last(cloud), last(cdn), last(fogB))
		}
		// Cloud bandwidth grows with players.
		if last(cloud) <= first(cloud) {
			t.Error("cloud bandwidth does not grow with players")
		}

		// Fig 7: latency ordering Cloud > CDN > CloudFog/B > CloudFog/A.
		lCloud := seriesByLabel(t, lat, "Cloud")
		lCDN := seriesByLabel(t, lat, "CDN")
		lFogB := seriesByLabel(t, lat, "CloudFog/B")
		lFogA := seriesByLabel(t, lat, "CloudFog/A")
		for i := range lCloud.Y {
			if !(lCloud.Y[i] > lCDN.Y[i] && lCDN.Y[i] > lFogB.Y[i] && lFogB.Y[i] > lFogA.Y[i]) {
				t.Errorf("fig7 ordering broken at x=%v: %v %v %v %v",
					lCloud.X[i], lCloud.Y[i], lCDN.Y[i], lFogB.Y[i], lFogA.Y[i])
			}
		}

		// Fig 8: continuity ordering Cloud < CDN < CloudFog/B < CloudFog/A.
		cCloud := seriesByLabel(t, cont, "Cloud")
		cCDN := seriesByLabel(t, cont, "CDN")
		cFogB := seriesByLabel(t, cont, "CloudFog/B")
		cFogA := seriesByLabel(t, cont, "CloudFog/A")
		for i := range cCloud.Y {
			if !(cCloud.Y[i] < cCDN.Y[i] && cFogB.Y[i] < cFogA.Y[i]+1e-9) {
				t.Errorf("fig8 ordering broken at x=%v", cCloud.X[i])
			}
		}
		// CloudFog/A delivers high continuity (paper: > 90%; we accept > 75%
		// at quick scale).
		if last(cFogA) < 0.75 {
			t.Errorf("CloudFog/A continuity %v too low", last(cFogA))
		}
		if last(cFogB) < last(cCDN)-0.05 {
			t.Errorf("CloudFog/B continuity %v clearly below CDN %v", last(cFogB), last(cCDN))
		}
	})
}

func TestFig9aShape(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "fig9a")
		if len(fig.Series) != 4 {
			t.Fatalf("series = %d", len(fig.Series))
		}
		for _, s := range fig.Series {
			for i, y := range s.Y {
				if y <= 0 {
					t.Errorf("%s latency not positive at x=%v", s.Label, s.X[i])
				}
			}
		}
		// Join and migration are sub-second operations (paper: ~0.3s join,
		// ~0.8s migration).
		join := seriesByLabel(t, fig, "player join")
		migration := seriesByLabel(t, fig, "migration")
		for i := range join.Y {
			if join.Y[i] > 2000 || migration.Y[i] > 2000 {
				t.Errorf("setup latencies implausibly high at x=%v", join.X[i])
			}
		}
	})
}

func TestFig10Shape(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "fig10")
		rep := seriesByLabel(t, fig, "CloudFog-reputation")
		base := seriesByLabel(t, fig, "CloudFog/B")
		// Both decline as per-supernode load grows.
		if last(rep) >= first(rep) || last(base) >= first(base) {
			t.Error("satisfaction does not decline with load")
		}
		// Reputation helps on average over the sweep (individual points may
		// tie within noise).
		var repSum, baseSum float64
		for i := range rep.Y {
			repSum += rep.Y[i]
			baseSum += base.Y[i]
		}
		if repSum <= baseSum {
			t.Errorf("reputation does not help on average: %v vs %v", repSum, baseSum)
		}
	})
}

func TestFig11Shape(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "fig11")
		adapt := seriesByLabel(t, fig, "CloudFog-adapt")
		base := seriesByLabel(t, fig, "CloudFog/B")
		wins := 0
		for i := range adapt.Y {
			if adapt.Y[i] > base.Y[i] {
				wins++
			}
		}
		if wins < len(adapt.Y)-1 {
			t.Errorf("adaptation wins only %d of %d load points", wins, len(adapt.Y))
		}
		// The gap grows with load (that is the point of the strategy).
		if adapt.Y[len(adapt.Y)-1]-base.Y[len(base.Y)-1] <= adapt.Y[0]-base.Y[0] {
			t.Log("note: adaptation gap did not widen with load at this scale")
		}
	})
}

func TestFig12Shape(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "fig12")
		on := seriesByLabel(t, fig, "server latency w/")
		off := seriesByLabel(t, fig, "server latency w/o")
		for i := range on.Y {
			if on.Y[i] >= off.Y[i] {
				t.Errorf("social assignment did not cut server latency at z=%v: %v vs %v",
					on.X[i], on.Y[i], off.Y[i])
			}
		}
		// The reduction is material (paper: ~20 ms; we require >= 5 ms).
		if off.Y[0]-on.Y[0] < 5 {
			t.Errorf("server latency reduction only %v ms", off.Y[0]-on.Y[0])
		}
	})
}

func TestProvisioningComparisonShapes(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		bw, lat, cont := figs.get(t, "fig13a"), figs.get(t, "fig14a"), figs.get(t, "fig15a")
		prov := seriesByLabel(t, bw, "CloudFog-provision")
		fixed := seriesByLabel(t, bw, "CloudFog/B")
		// The fixed pool's cloud bandwidth grows steeply with arrival rate;
		// provisioning keeps it nearly flat and below the fixed pool at peak.
		if last(fixed) <= first(fixed) {
			t.Error("fixed pool bandwidth does not grow with arrivals")
		}
		if last(prov) >= last(fixed) {
			t.Errorf("provisioning bandwidth %v not below fixed %v at peak", last(prov), last(fixed))
		}
		// Latency and continuity: provisioning better at every rate.
		lProv := seriesByLabel(t, lat, "CloudFog-provision")
		lFixed := seriesByLabel(t, lat, "CloudFog/B")
		cProv := seriesByLabel(t, cont, "CloudFog-provision")
		cFixed := seriesByLabel(t, cont, "CloudFog/B")
		for i := range lProv.Y {
			if lProv.Y[i] >= lFixed.Y[i] {
				t.Errorf("provisioning latency %v not below fixed %v at rate %v",
					lProv.Y[i], lFixed.Y[i], lProv.X[i])
			}
			if cProv.Y[i] <= cFixed.Y[i] {
				t.Errorf("provisioning continuity %v not above fixed %v at rate %v",
					cProv.Y[i], cFixed.Y[i], cProv.X[i])
			}
		}
	})
}

func TestFig16a(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "fig16a")
		if len(fig.Series) != 3 {
			t.Fatalf("series = %d", len(fig.Series))
		}
		rewards, costs, profits := fig.Series[0], fig.Series[1], fig.Series[2]
		for i := range rewards.X {
			if profits.Y[i] != rewards.Y[i]-costs.Y[i] {
				t.Error("profit != reward - cost")
			}
			// The paper's point: costs are trivial compared to rewards.
			if costs.Y[i] > 0.2*rewards.Y[i] {
				t.Errorf("costs not trivial at %v h: %v vs %v", rewards.X[i], costs.Y[i], rewards.Y[i])
			}
		}
		// Rewards grow with hours.
		if rewards.Y[len(rewards.Y)-1] <= rewards.Y[0] {
			t.Error("rewards do not grow with hours")
		}
	})
}

func TestFig16b(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "fig16b")
		renting, rewards, savings := fig.Series[0], fig.Series[1], fig.Series[2]
		for i := range renting.X {
			if savings.Y[i] != renting.Y[i]-rewards.Y[i] {
				t.Error("saving != renting - reward")
			}
			if savings.Y[i] <= 0 {
				t.Errorf("provider saving not positive at %v h", renting.X[i])
			}
		}
	})
}

func TestAblationProvisioningSelection(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "ablation-provisioning")
		eq16, topk := fig.Series[0], fig.Series[1]
		for i := range eq16.X {
			// Top-k concentrates on the busiest ranks more than Eq. 16.
			if topk.Y[i] > eq16.Y[i] {
				t.Errorf("top-k mean rank %v above Eq.16 %v at k=%v", topk.Y[i], eq16.Y[i], eq16.X[i])
			}
		}
	})
}

func TestAblationAssignmentRefinement(t *testing.T) {
	eachScale(t, func(t *testing.T, figs figureSet) {
		fig := figs.get(t, "ablation-assignment")
		greedy, refined, polished := fig.Series[0], fig.Series[1], fig.Series[2]
		for i := range greedy.X {
			if refined.Y[i] < greedy.Y[i]-1e-9 {
				t.Errorf("refinement reduced Γ at z=%v", greedy.X[i])
			}
			if polished.Y[i] < refined.Y[i]-1e-9 {
				t.Errorf("polish reduced Γ at z=%v", greedy.X[i])
			}
		}
	})
}
