// Command cloudfogsim runs the CloudFog reproduction experiments and
// prints each paper figure's series as a text table.
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
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"

	"cloudfog/internal/experiments"
)

type runner func(experiments.Options) ([]*experiments.Figure, error)

func single(f func(experiments.Options) (*experiments.Figure, error)) runner {
	return func(o experiments.Options) ([]*experiments.Figure, error) {
		fig, err := f(o)
		if err != nil {
			return nil, err
		}
		return []*experiments.Figure{fig}, nil
	}
}

func registry() map[string]runner {
	return map[string]runner{
		"table2": func(o experiments.Options) ([]*experiments.Figure, error) {
			return []*experiments.Figure{experiments.Table2()}, nil
		},
		"fig4a": single(experiments.Fig4a),
		"fig4b": single(experiments.Fig4b),
		"fig5a": single(experiments.Fig5a),
		"fig5b": single(experiments.Fig5b),
		"fig6-8": func(o experiments.Options) ([]*experiments.Figure, error) {
			b, l, c, err := experiments.SystemComparison(o)
			if err != nil {
				return nil, err
			}
			return []*experiments.Figure{b, l, c}, nil
		},
		"fig6":  single(experiments.Fig6),
		"fig7":  single(experiments.Fig7),
		"fig8":  single(experiments.Fig8),
		"fig9a": single(experiments.Fig9a),
		"fig9b": single(experiments.Fig9b),
		"fig10": single(experiments.Fig10),
		"fig11": single(experiments.Fig11),
		"fig12": single(experiments.Fig12),
		"fig13-15": func(o experiments.Options) ([]*experiments.Figure, error) {
			b, l, c, err := experiments.ProvisioningComparison(o)
			if err != nil {
				return nil, err
			}
			return []*experiments.Figure{b, l, c}, nil
		},
		"fig13":                 single(experiments.Fig13),
		"fig14":                 single(experiments.Fig14),
		"fig15":                 single(experiments.Fig15),
		"fig16a":                single(experiments.Fig16a),
		"fig16b":                single(experiments.Fig16b),
		"ablation-assignment":   single(experiments.AblationAssignmentRefinement),
		"ablation-reputation":   single(experiments.AblationReputationScope),
		"ablation-provisioning": single(experiments.AblationProvisioningSelection),
		"ablation-debounce":     single(experiments.AblationAdaptationDebounce),
		"extension-deployment":  single(experiments.ExtensionOptimalDeployment),
	}
}

// allOrder is the run order for -exp all, avoiding the duplicate-sweep
// aliases (fig6/7/8 and fig13/14/15 are covered by the combined runners).
var allOrder = []string{
	"table2", "fig4a", "fig4b", "fig5a", "fig5b", "fig6-8",
	"fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13-15",
	"fig16a", "fig16b",
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cloudfogsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
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

	reg := registry()
	if *list {
		names := make([]string, 0, len(reg))
		for name := range reg {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("available experiments:", strings.Join(names, " "))
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

	names := []string{*exp}
	if *exp == "all" {
		names = allOrder
	}
	for _, name := range names {
		r, ok := reg[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", name)
		}
		figs, err := r(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, fig := range figs {
			switch *output {
			case "json":
				enc := json.NewEncoder(os.Stdout)
				if err := enc.Encode(fig); err != nil {
					return fmt.Errorf("%s: encode: %w", name, err)
				}
			case "csv":
				fig.RenderCSV(os.Stdout)
				fmt.Println()
			case "table":
				fig.Render(os.Stdout)
				fmt.Println()
			default:
				return fmt.Errorf("unknown output format %q", *output)
			}
		}
	}
	if *exp == "all" || *exp == "fig16a" || *exp == "fig16b" {
		fmt.Println(experiments.AnnualFleetCost())
	}
	return nil
}
