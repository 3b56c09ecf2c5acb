package checkers

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cloudfog/internal/analysis"
)

// TestTreeClean asserts that the checked-in tree carries zero cloudfoglint
// diagnostics. This is the regression gate the analyzers exist for: fixing
// a violation (or blessing it with //lint:ignore) is part of the change
// that introduces it, never deferred. If this test fails, run
//
//	go run ./cmd/cloudfoglint ./...
//
// for the same diagnostics with file:line positions.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader := analysis.Shared()
	diags, err := loader.Run(All(), "cloudfog/...")
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		t.Errorf("%d diagnostic(s) on HEAD; fix or annotate with //lint:ignore <analyzer> <reason>", len(diags))
	}
}

// registryNames is the full analyzer roster in registration order. The
// sync tests below hold every entry to the same bar: wired into All(),
// fixtures under its package's testdata, and a row in the DESIGN.md §11
// catalog.
var registryNames = []string{
	"pooledbuf", "conndeadline", "guardedby", "deterministic", "noretain",
	"phasepure", "epochstamp",
}

// TestRegistryComplete guards against an analyzer package existing without
// being wired into the registry (and therefore silently unenforced).
func TestRegistryComplete(t *testing.T) {
	got := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing Name, Doc, or Run", a.Name)
		}
		got[a.Name] = true
	}
	for _, name := range registryNames {
		if !got[name] {
			t.Errorf("analyzer %q not registered in checkers.All()", name)
		}
	}
	if len(All()) != len(registryNames) {
		t.Errorf("registry has %d analyzers, want %d: %s", len(All()), len(registryNames), strings.Join(registryNames, ", "))
	}
}

// TestRegistryFixtures asserts every registered analyzer ships fixture
// packages: a sibling package internal/analysis/<name> with at least one
// .go file under testdata/src. An analyzer without fixtures has no
// executable specification of what it flags and what it permits.
func TestRegistryFixtures(t *testing.T) {
	for _, a := range All() {
		dir := filepath.Join("..", a.Name, "testdata", "src")
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %q has no fixture dir %s: %v", a.Name, dir, err)
			continue
		}
		found := false
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			gofiles, _ := filepath.Glob(filepath.Join(dir, e.Name(), "*.go"))
			if len(gofiles) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("analyzer %q fixture dir %s contains no package with .go files", a.Name, dir)
		}
	}
}

// TestRegistryDocumented asserts the DESIGN.md §11 analyzer catalog has a
// table row for every registered analyzer (and no row for an analyzer
// that no longer exists): the catalog is the reviewer-facing contract,
// and it goes stale exactly when nothing forces it to move with the
// registry.
func TestRegistryDocumented(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatalf("reading DESIGN.md: %v", err)
	}
	// Catalog rows look like "| `name` | ... |".
	rowRe := regexp.MustCompile("(?m)^\\|\\s*`([a-z]+)`\\s*\\|")
	documented := map[string]bool{}
	for _, m := range rowRe.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = true
	}
	registered := map[string]bool{}
	for _, a := range All() {
		registered[a.Name] = true
		if !documented[a.Name] {
			t.Errorf("analyzer %q has no catalog row in DESIGN.md §11 (expected a line starting \"| `%s` |\")", a.Name, a.Name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("DESIGN.md catalog documents %q, which is not in checkers.All(): remove the row or register the analyzer", name)
		}
	}
}
