// Command cloudfoglint is the repo's invariant checker: it loads the
// named packages, runs the seven analyzers registered in
// internal/analysis/checkers over them (DESIGN.md §11 says what each one
// guards), prints file:line:col: message (analyzer) for every surviving
// diagnostic and exits 2 if there was one.
//
//	go run ./cmd/cloudfoglint ./...     (what make lint runs)
//	go run ./cmd/cloudfoglint -list
//
// The same run is tier-1's checkers.TestTreeClean. Over the whole module
// ("./...") the call graph behind phasepure spans every package and
// //lint:ignore directives that suppress nothing are reported; a package
// list is a weaker check. Suppress a diagnostic by annotating the
// offending line (or the line above) with
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudfog/internal/analysis"
	"cloudfog/internal/analysis/checkers"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range checkers.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := analysis.Shared()
	diags, err := loader.Run(checkers.All(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudfoglint:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Printf("%s: %s (%s)\n", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cloudfoglint: %d invariant violation(s)\n", len(diags))
		os.Exit(2)
	}
}
