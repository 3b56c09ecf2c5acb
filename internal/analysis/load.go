// Package loading for the analyzer driver, built on the go toolchain
// itself: `go list -export -deps -json` compiles every dependency into
// the build cache and reports the export-data file per import path, and
// the standard gc importer reads those files back through a lookup
// function. That gives full types.Info for any package in the module —
// including ad-hoc fixture directories under testdata/ — without
// golang.org/x/tools.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
)

// ListedPackage is the subset of `go list -json` output the loader needs.
type ListedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// TypedPackage is one fully type-checked package ready for analyzers.
type TypedPackage struct {
	Listed *ListedPackage
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
}

// Loader resolves import paths to export data (via go list) and
// type-checks source packages against it. A single Loader is safe for
// sequential reuse; Shared() returns a process-wide instance so every
// analyzer test amortizes one `go list` run.
type Loader struct {
	Fset    *token.FileSet
	mu      sync.Mutex
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// NewLoader returns an empty loader. Export data is discovered lazily.
func NewLoader() *Loader {
	l := &Loader{Fset: token.NewFileSet(), exports: make(map[string]string)}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l
}

var (
	sharedOnce sync.Once
	shared     *Loader
)

// Shared returns the process-wide loader.
func Shared() *Loader {
	sharedOnce.Do(func() { shared = NewLoader() })
	return shared
}

// lookup feeds export data to the gc importer.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		// A path outside everything listed so far (e.g. a fixture
		// importing a stdlib package no module package uses): list it
		// on demand.
		if _, err := l.list(path); err != nil {
			return nil, fmt.Errorf("no export data for %q: %w", path, err)
		}
		l.mu.Lock()
		file, ok = l.exports[path]
		l.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("go list produced no export data for %q", path)
		}
	}
	return os.Open(file)
}

// list runs `go list -export -deps -json` for patterns and records every
// reported export file. It returns the non-DepOnly packages in listing
// order.
func (l *Loader) list(patterns ...string) ([]*ListedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json=Dir,ImportPath,Name,Export,GoFiles,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var roots []*ListedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding: %v", patterns, err)
		}
		l.mu.Lock()
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		l.mu.Unlock()
		if !p.DepOnly {
			q := p
			roots = append(roots, &q)
		}
	}
	return roots, nil
}

// Load lists the given package patterns, type-checks each matched
// (non-test) package from source, and returns them sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*TypedPackage, error) {
	roots, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })
	var out []*TypedPackage
	for _, p := range roots {
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		tp, err := l.Check(p.ImportPath, files)
		if err != nil {
			return nil, err
		}
		tp.Listed = p
		out = append(out, tp)
	}
	return out, nil
}

// Check parses and type-checks one package from an explicit file list.
// Imports resolve through export data, so the files may live anywhere —
// including testdata fixture directories the go tool ignores.
func (l *Loader) Check(path string, filenames []string) (*TypedPackage, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &TypedPackage{Files: files, Pkg: pkg, Info: info}, nil
}

// Run loads the patterns and applies the analyzers to every matched
// package, returning all surviving diagnostics sorted per package.
//
// Facts are computed over every matched package before any analyzer
// runs, so phasepure sees one call graph spanning the whole load. The
// unused-suppression audit is enabled only on whole-module patterns
// ("./...", "cloudfog/..."): a package-list run omits the roots whose
// reachability makes an ignore load-bearing, and would call live
// directives dead.
func (l *Loader) Run(analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	facts := NewFacts()
	for _, tp := range pkgs {
		ComputeFacts(l.Fset, tp.Files, tp.Pkg, tp.Info, facts)
	}
	wholeModule := false
	for _, p := range patterns {
		if p == "./..." || p == "cloudfog/..." {
			wholeModule = true
		}
	}
	cfg := RunConfig{Facts: facts, AuditIgnores: wholeModule}
	var out []Diagnostic
	for _, tp := range pkgs {
		diags, err := RunAnalyzers(l.Fset, tp.Files, tp.Pkg, tp.Info, analyzers, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	return out, nil
}
