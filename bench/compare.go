package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// setupFloor is the absolute part of setup_s's bound: the larger of its
// relative bound and this many seconds. Live set-ups take ~0.07 s, where a
// quarter is less than one scheduler hiccup.
const setupFloor = 0.05

// untraced returns a file's end-to-end run of each workload, in file order.
func untraced(f *resultFile) (names []string, runs map[string]*runRecord) {
	runs = map[string]*runRecord{}
	for i := range f.Runs {
		r := &f.Runs[i]
		if r.Trace {
			continue
		}
		if _, dup := runs[r.Workload]; !dup {
			names = append(names, r.Workload)
		}
		runs[r.Workload] = r
	}
	return names, runs
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse b is than a, and the bound; it returns the exit code: 1
// if any metric worsened beyond its bound (for setup_s: beyond the larger
// of its bound and setupFloor) or a larger share of operations failed, 2 if
// the files cannot be compared.
func compareFiles(aPath, bPath, specPath string) int {
	var a, b resultFile
	var spec benchmarkSpec
	for _, in := range []struct {
		path string
		v    any
	}{{aPath, &a}, {bPath, &b}, {specPath, &spec}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(os.Stderr, "bench -compare: %v\n", err)
			return 2
		}
	}
	if a.Provenance.WindowS != b.Provenance.WindowS || a.Provenance.WarmupS != b.Provenance.WarmupS {
		fmt.Fprintf(os.Stderr, "bench -compare: the files were not taken the same way: window %g s and warm-up %g s against %g s and %g s\n",
			a.Provenance.WindowS, a.Provenance.WarmupS, b.Provenance.WindowS, b.Provenance.WarmupS)
		return 2
	}
	names, aRuns := untraced(&a)
	_, bRuns := untraced(&b)
	fmt.Printf("a: %s  commit %s  seed %d  %d procs\nb: %s  commit %s  seed %d  %d procs\n",
		aPath, a.Provenance.GitCommit, a.Provenance.Seed, a.Provenance.GOMAXPROCS,
		bPath, b.Provenance.GitCommit, b.Provenance.Seed, b.Provenance.GOMAXPROCS)
	code := 0
	compared := 0
	for _, w := range names {
		ra, rb := aRuns[w], bRuns[w]
		if rb == nil {
			fmt.Printf("%s: only in a\n", w)
			code = 1
			continue
		}
		if ra.Invalid != "" || rb.Invalid != "" {
			fmt.Fprintf(os.Stderr, "bench -compare: %s: a run is marked invalid (a: %q, b: %q); take it again\n", w, ra.Invalid, rb.Invalid)
			return 2
		}
		fmt.Printf("== %s\n", w)
		for _, m := range spec.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB || va.Value == 0 {
				fmt.Printf("  %-34s missing or zero\n", m.Name)
				code = 1
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound && !(m.Name == "setup_s" && vb.Value-va.Value <= setupFloor) {
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Printf("  %-34s a=%14.4f  b=%14.4f %-7s worse by %+7.2f %%  bound %5.1f %%  %s\n",
				m.Name, va.Value, vb.Value, m.Unit, 100*worse, 100*m.Bound, verdict)
			compared++
		}
		fa := float64(ra.Failed) / float64(ra.Attempted)
		fb := float64(rb.Failed) / float64(rb.Attempted)
		verdict := "ok"
		if fb > fa || !rb.Correct {
			verdict = "MORE FAILURES"
			code = 1
		}
		fmt.Printf("  %-34s a=%d/%d  b=%d/%d  %s\n", "failed operations", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, verdict)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "bench -compare: the files share no untraced run")
		return 2
	}
	return code
}
