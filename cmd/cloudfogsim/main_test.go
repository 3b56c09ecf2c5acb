package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"cloudfog/internal/experiments"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range experiments.All {
		want = append(want, e.ID)
	}
	if got, w := out.String(), "available experiments: "+strings.Join(want, " ")+"\n"; got != w {
		t.Errorf("-list printed %q, want %q", got, w)
	}
}

func TestRunMissingExperiment(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Error("missing -exp accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// The per-panel aliases of the two sweeps are gone with their ids.
	for _, exp := range []string{"fig999", "fig6", "fig8", "fig13", "fig15"} {
		if err := run([]string{"-exp", exp}, io.Discard); err == nil {
			t.Errorf("unknown experiment %s accepted", exp)
		}
	}
}

func TestRunBadScaleAndProfile(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-scale", "huge"}, io.Discard); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-exp", "table2", "-profile", "mars"}, io.Discard); err == nil {
		t.Error("bad profile accepted")
	}
}

func TestRunCheapExperiments(t *testing.T) {
	// table2 and fig16a/b are analytic: they must run instantly. The
	// fleet estimate closes fig16b's table.
	for _, exp := range []string{"table2", "fig16a", "fig16b"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", exp}, &out); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
		if got := strings.Contains(out.String(), "3000 supernodes"); got != (exp == "fig16b") {
			t.Errorf("%s: fleet estimate printed = %v", exp, got)
		}
	}
}

func TestRunCoverageExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage sweep takes a few seconds")
	}
	if err := run([]string{"-exp", "fig4a", "-seed", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunOutputFormats(t *testing.T) {
	if err := run([]string{"-exp", "table2", "-o", "json"}, io.Discard); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-exp", "table2", "-o", "csv"}, io.Discard); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-exp", "table2", "-o", "yaml"}, io.Discard); err == nil {
		t.Error("unknown output format accepted")
	}
}

// TestRunJSONLinesAreFigures: every line -o json prints is one figure, so
// the output is JSON lines a decoder reads to the end.
func TestRunJSONLinesAreFigures(t *testing.T) {
	for _, exp := range []string{"fig16a", "fig16b"} {
		var out bytes.Buffer
		if err := run([]string{"-exp", exp, "-o", "json"}, &out); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(&out)
		lines := 0
		for sc.Scan() {
			lines++
			dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
			dec.DisallowUnknownFields()
			var fig experiments.Figure
			if err := dec.Decode(&fig); err != nil {
				t.Fatalf("%s: line %d is not a figure: %v\n%s", exp, lines, err, sc.Bytes())
			}
			if fig.ID != exp || len(fig.Series) == 0 {
				t.Errorf("%s: line %d decoded to %q with %d series", exp, lines, fig.ID, len(fig.Series))
			}
		}
		if lines != 1 {
			t.Errorf("%s: %d lines of JSON, want 1", exp, lines)
		}
	}
}
