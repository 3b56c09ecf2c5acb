package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != ScaleQuick || o.Profile != ProfilePeerSim || o.Seed != 1 {
		t.Errorf("defaults: %+v", o)
	}
}

func TestScaleString(t *testing.T) {
	if ScaleQuick.String() != "quick" || ScaleFull.String() != "full" || Scale(0).String() != "unknown" {
		t.Error("Scale.String mismatch")
	}
}

func TestBaseConfigScales(t *testing.T) {
	quick := Options{Scale: ScaleQuick}.withDefaults()
	cfg, cycles, warmup := quick.baseConfig()
	if cfg.Players != 1200 || cycles != 6 || warmup != 3 {
		t.Errorf("quick base: players=%d cycles=%d warmup=%d", cfg.Players, cycles, warmup)
	}
	full := Options{Scale: ScaleFull}.withDefaults()
	cfg, cycles, warmup = full.baseConfig()
	if cfg.Players != 10000 || cycles != 28 || warmup != 21 {
		t.Errorf("full base: players=%d cycles=%d warmup=%d", cfg.Players, cycles, warmup)
	}
	pl := Options{Profile: ProfilePlanetLab}.withDefaults()
	cfg, _, _ = pl.baseConfig()
	if cfg.Players != 750 || cfg.Datacenters != 2 {
		t.Errorf("planetlab base: %+v", cfg)
	}
}

func TestFigureRender(t *testing.T) {
	fig := &Figure{
		ID: "test", Title: "title", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{30}},
		},
	}
	out := fig.String()
	for _, want := range []string{"test", "title", "a", "b", "10", "30", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	empty := &Figure{ID: "e", Title: "t"}
	if !strings.Contains(empty.String(), "no series") {
		t.Error("empty figure render")
	}
}

func TestAnnualFleetCost(t *testing.T) {
	s := AnnualFleetCost()
	if !strings.Contains(s, "supernodes") || !strings.Contains(s, "datacenter") {
		t.Errorf("fleet cost text: %q", s)
	}
}

func TestFigureJSONAndCSV(t *testing.T) {
	fig := &Figure{
		ID: "t", Title: "demo", XLabel: "x,axis", YLabel: "y", Note: "prose",
		Series: []Series{{Label: `quo"ted`, X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	data, err := json.Marshal(fig)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id":"t"`, `"x":[1,2]`, `"y":[3,4]`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q: %s", want, data)
		}
	}
	var csv strings.Builder
	fig.RenderCSV(&csv)
	out := csv.String()
	if !strings.Contains(out, `"x,axis"`) {
		t.Errorf("CSV header not escaped: %s", out)
	}
	if !strings.Contains(out, `"quo""ted"`) {
		t.Errorf("CSV quote not escaped: %s", out)
	}
	if !strings.Contains(out, "1,3") || !strings.Contains(out, "2,4") {
		t.Errorf("CSV rows missing: %s", out)
	}
	// The note is table prose: JSON and CSV stay machine-readable.
	if strings.Contains(string(data), "prose") || strings.Contains(out, "prose") {
		t.Errorf("note leaked into JSON or CSV:\n%s\n%s", data, out)
	}
	if !strings.Contains(fig.String(), "prose") {
		t.Errorf("table lost the note:\n%s", fig.String())
	}
}
