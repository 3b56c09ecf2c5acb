// Command cloudfogsim runs the CloudFog reproduction experiments of
// experiments.All and prints each paper figure's series as a text table,
// one JSON object per line (-o json) or CSV.
//
// Usage:
//
//	cloudfogsim -exp fig4a [-scale quick|full] [-profile peersim|planetlab] [-seed N]
//	cloudfogsim -exp all
//	cloudfogsim -list
//
// The simulator's evaluation loop runs on a worker pool: -parallel N fixes
// its size, anything else sizes it by GOMAXPROCS. Seeded outputs are
// bit-identical for every size. -cpuprofile/-memprofile/-trace capture runtime profiles of
// an experiment run for perf work (see README).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"

	"cloudfog/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cloudfogsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cloudfogsim", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment to run (see -list), or 'all'")
	output := fs.String("o", "table", "output format: table, json, or csv")
	scale := fs.String("scale", "quick", "experiment scale: quick or full")
	profile := fs.String("profile", "peersim", "environment profile: peersim or planetlab")
	seed := fs.Uint64("seed", 1, "random seed")
	list := fs.Bool("list", false, "list available experiments")
	parallel := fs.Int("parallel", 0, "eval worker pool size; <= 0 means GOMAXPROCS")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	tracefile := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cloudfogsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cloudfogsim: memprofile:", err)
			}
		}()
	}

	if *list {
		ids := make([]string, len(experiments.All))
		for i, e := range experiments.All {
			ids[i] = e.ID
		}
		fmt.Fprintln(stdout, "available experiments:", strings.Join(ids, " "))
		return nil
	}
	if *exp == "" {
		return fmt.Errorf("missing -exp (use -list to see experiments)")
	}

	opts := experiments.Options{Seed: *seed, Workers: *parallel}
	switch *scale {
	case "quick":
		opts.Scale = experiments.ScaleQuick
	case "full":
		opts.Scale = experiments.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	switch *profile {
	case "peersim":
		opts.Profile = experiments.ProfilePeerSim
	case "planetlab":
		opts.Profile = experiments.ProfilePlanetLab
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	switch *output {
	case "table", "json", "csv":
	default:
		return fmt.Errorf("unknown output format %q", *output)
	}

	var chosen []experiments.Experiment
	for _, e := range experiments.All {
		if *exp == "all" || *exp == e.ID {
			chosen = append(chosen, e)
		}
	}
	if len(chosen) == 0 {
		return fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	for _, e := range chosen {
		figs, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, fig := range figs {
			switch *output {
			case "json":
				if err := json.NewEncoder(stdout).Encode(fig); err != nil {
					return fmt.Errorf("%s: encode: %w", e.ID, err)
				}
			case "csv":
				fig.RenderCSV(stdout)
				fmt.Fprintln(stdout)
			default:
				fig.Render(stdout)
				fmt.Fprintln(stdout)
			}
		}
	}
	return nil
}
