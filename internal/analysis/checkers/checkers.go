// Package checkers is the registry of cloudfoglint analyzers: the single
// list shared by the cmd/cloudfoglint multichecker and the tree-clean
// regression test, so a newly added analyzer is automatically enforced by
// both.
package checkers

import (
	"cloudfog/internal/analysis"
	"cloudfog/internal/analysis/conndeadline"
	"cloudfog/internal/analysis/deterministic"
	"cloudfog/internal/analysis/epochstamp"
	"cloudfog/internal/analysis/guardedby"
	"cloudfog/internal/analysis/noretain"
	"cloudfog/internal/analysis/phasepure"
	"cloudfog/internal/analysis/pooledbuf"
)

// All returns every cloudfoglint analyzer in reporting order: the five
// PR 4 syntactic checkers, then PR 10's phasepure and epochstamp.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		pooledbuf.Analyzer,
		conndeadline.Analyzer,
		guardedby.Analyzer,
		deterministic.Analyzer,
		noretain.Analyzer,
		phasepure.Analyzer,
		epochstamp.Analyzer,
	}
}
