// Command bench is CloudFog's end-to-end benchmark: it starts a real
// in-process cluster through the public constructors (cloud, fog node,
// player clients, over host loopback TCP/UDP — not a link) or a
// core.NewSystem simulation, drives it with seeded load, checks that what
// came out is correct, and prints every metric by name with its unit.
// README.md describes the workloads, the metrics and how to read them.
//
// The driver's contract (BENCHMARK.json) is
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last stdout line is one JSON object. Without --workload every
// workload runs in turn; -out writes a result file with provenance, and
// -compare a.json b.json checks two result files against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	liveSetups = 5
	// warmup is how long a live workload runs under load before its window.
	warmup = 3 * time.Second
	// loopbackNote goes into every result verbatim: the numbers include no
	// wire.
	loopbackNote = "all traffic crossed host loopback (127.0.0.1 TCP/UDP inside one process), not a network link"
)

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the driver-facing result: exactly these keys.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as stored in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Seed     uint64 `json:"seed"`
	contractLine
	Samples  map[string]int `json:"samples"`
	Info     map[string]any `json:"info"`
	Problems []string       `json:"problems,omitempty"`
	Invalid  string         `json:"invalid,omitempty"`
}

// provenance records where and how a result file was taken.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Network    string  `json:"network"`
	TakenAt    string  `json:"taken_at"`
}

type resultFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// emit selects the metric set a mode reports and checks it is complete
// and finite.
func emit(res *result, trace bool) map[string]metricValue {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !trace {
			res.problem("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("metric %s is not finite", d.Name)
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

func runOne(w *workload, o runOpts, goldenOut string) runRecord {
	var res *result
	if w.Live != nil {
		o.Setups = liveSetups
		res = runLive(w, o)
	} else {
		res = runSim(w, o, goldenOut)
	}
	rec := runRecord{Workload: w.Name, Trace: o.Trace, Seed: o.Seed, Samples: res.Samples, Info: res.Info}
	rec.Metrics = emit(res, o.Trace)
	rec.Correct, rec.Attempted, rec.Failed, rec.Problems = res.Correct, res.Attempted, res.Failed, res.Problems
	rec.Invalid = res.Invalid
	if rec.Attempted < 1 {
		rec.Attempted = 1
	}
	if !rec.Correct && rec.Failed == 0 {
		rec.Failed = 1
	}
	printRun(&rec, res.Report)
	return rec
}

// printRun prints every emitted metric by name with its unit and, beside
// each percentile, the number of samples behind it.
func printRun(rec *runRecord, report []string) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("== %s  seed %d  %s  [%s]\n", rec.Workload, rec.Seed, mode, loopbackNote)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mv := rec.Metrics[n]
		line := fmt.Sprintf("  %-40s %16.4f %s", n, mv.Value, mv.Unit)
		if c, ok := rec.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Println(line)
	}
	for _, l := range report {
		fmt.Println("  " + l)
	}
	if b, ok := rec.Info["p95_samples_beyond"]; ok {
		fmt.Printf("  samples beyond each p95: %v\n", b)
	}
	fmt.Printf("  operations: %d attempted, %d failed; correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
	if rec.Invalid != "" {
		fmt.Printf("  INVALID RUN: %s\n", rec.Invalid)
	}
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
		seed      = flag.Uint64("seed", 1, "seed for world layout, spawn points, action schedules and send jitter")
		seconds   = flag.Float64("seconds", 24, "measured window in seconds (the simulator repeats its 2-cycle run seconds/4 times)")
		trace     = flag.Int("trace", 0, "1: the traced run — record spans, run the layer pass, report per-layer metrics")
		traceOut  = flag.String("trace-out", "", "where the traced run writes its spans as JSON lines (default .bench_build/trace-<workload>.jsonl)")
		out       = flag.String("out", "", "write a result file (provenance + every run) here")
		compare   = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		specFile  = flag.String("spec", "BENCHMARK.json", "where -compare reads the bounds")
		goldenOut = flag.String("update-golden", "", "rewrite the simulator's golden digest into this file instead of checking it")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *specFile))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive, -trace 0 or 1")
		os.Exit(2)
	}

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	opts := runOpts{
		Seed:   *seed,
		Window: time.Duration(*seconds * float64(time.Second)),
		Warmup: warmup,
	}
	file := resultFile{Provenance: provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(), GitCommit: gitCommit(),
		Seed: *seed, WindowS: *seconds, WarmupS: warmup.Seconds(), Network: loopbackNote,
		TakenAt: time.Now().UTC().Format(time.RFC3339),
	}}
	ok := true
	var last runRecord
	for _, w := range todo {
		// With every workload requested, -trace 1 adds the traced run
		// after the untraced one; a single workload runs in the one mode
		// asked for, which is what the driver wants.
		modes := []bool{*trace == 1}
		if *name == "all" && *trace == 1 {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			o := opts
			o.Trace = traced
			o.TraceOut = *traceOut
			if o.TraceOut == "" {
				o.TraceOut = filepath.Join(".bench_build", "trace-"+w.Name+".jsonl")
			}
			last = runOne(w, o, *goldenOut)
			file.Runs = append(file.Runs, last)
			ok = ok && last.Correct
		}
	}
	if *out != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
			ok = false
		}
	}
	// The driver reads the last line of stdout.
	line, err := json.Marshal(last.contractLine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}
