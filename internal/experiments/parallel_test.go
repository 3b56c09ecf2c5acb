package experiments

import (
	"reflect"
	"testing"
)

// TestFigureOutputsParallelEquivalence is the figure-level half of the
// parallel determinism contract (core/parallel.go): every plotted number a
// figure emits must be bit-identical between the single worker that runs on
// the caller (Workers = 1) and a multi-goroutine worker pool. The core equivalence
// tests pin snapshots and state digests; this pins what actually leaves the
// repo — the figure series.
func TestFigureOutputsParallelEquivalence(t *testing.T) {
	figures := map[string]func(Options) (*Figure, error){
		"fig6":  Fig6,  // system comparison (all three modes)
		"fig10": Fig10, // reputation strategy sweep
		"fig13": Fig13, // provisioning under churn
		"fig4a": Fig4a, // supernode coverage
	}
	for name, fig := range figures {
		t.Run(name, func(t *testing.T) {
			seq, err := fig(Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := fig(Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("figure %s diverged between 1 and 4 workers\n seq: %+v\n par: %+v",
					name, seq, par)
			}
		})
	}
}
