// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time and reports Diagnostics. The repo's
// invariant checkers (cmd/cloudfoglint) are built on it because the
// toolchain image carries only the standard library.
//
// The shape mirrors x/tools deliberately — Name/Doc/Run, a Pass with
// Fset/Files/Pkg/TypesInfo and a Report callback — so the analyzers port
// to the real framework unchanged if x/tools ever becomes available.
//
// Suppression: a diagnostic is dropped by the driver when the offending
// line, or the line directly above it, carries a comment of the form
//
//	//lint:ignore <analyzer-name> <reason>
//
// The reason is mandatory; a bare ignore keeps the diagnostic. Diagnostics
// in _test.go files are dropped unconditionally — the invariants guard
// production code paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package via pass and reports violations.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the merged per-function fact index. In a Loader.Run (make
	// lint, TestTreeClean) it spans every loaded package, so phasepure
	// sees the whole call graph; in fixture runs it covers the fixture
	// package only.
	Facts *Facts

	// Report records one diagnostic. Positions must be valid.
	Report func(Diagnostic)
}

// LocalPos reports whether pos lies inside one of the pass's own files.
// Interprocedural analyzers run once per package but walk a module-wide
// call graph; restricting reports to local positions keeps each
// diagnostic attributed to exactly one pass (and thus suppressible by a
// comment in the file that owns it).
func (p *Pass) LocalPos(pos token.Pos) bool {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return true
		}
	}
	return false
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// Callee resolves the *types.Func called by call, or nil when the callee
// is not a statically known function or method (e.g. a call through a
// function-typed variable).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// FullName returns the fully qualified name of the function called by
// call ("path/to/pkg.Func" or "(*path/to/pkg.T).Method"), or "".
func FullName(info *types.Info, call *ast.CallExpr) string {
	if f := Callee(info, call); f != nil {
		return f.FullName()
	}
	return ""
}

// ImportedPkg walks the import graph of pkg and returns the package with
// the given path, or nil. Used to fetch well-known types (net.Conn)
// without a second load.
func ImportedPkg(pkg *types.Package, path string) *types.Package {
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		for _, imp := range p.Imports() {
			if got := walk(imp); got != nil {
				return got
			}
		}
		return nil
	}
	return walk(pkg)
}

// ignoreRe matches the suppression comment form. The reason group must be
// non-empty for the suppression to take effect.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+(\S+)\s+(\S.*)$`)

// ignoreEntry is one //lint:ignore directive, with usage tracking for the
// unused-suppression audit.
type ignoreEntry struct {
	analyzer string
	pos      token.Pos
	used     bool
}

// suppressions maps file -> line -> directives on that line.
type suppressions map[string]map[int][]*ignoreEntry

func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := make(suppressions)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := sup[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*ignoreEntry)
					sup[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line],
					&ignoreEntry{analyzer: m[1], pos: c.Pos()})
			}
		}
	}
	return sup
}

func (s suppressions) covers(pos token.Position, analyzer string) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, e := range lines[line] {
			if e.analyzer == analyzer || e.analyzer == "cloudfoglint" {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

// auditUnused reports every directive that suppressed nothing during the
// run, provided its named analyzer was actually in the run set — an
// ignore for an analyzer that didn't run may be load-bearing in a fuller
// run, so it is left alone. Directives in _test.go files are skipped (the
// driver never reports there, so an ignore is inert by construction).
func (s suppressions) auditUnused(fset *token.FileSet, ranNames map[string]bool, report func(Diagnostic)) {
	for file, lines := range s {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		for _, entries := range lines {
			for _, e := range entries {
				if e.used || (!ranNames[e.analyzer] && e.analyzer != "cloudfoglint") {
					continue
				}
				report(Diagnostic{
					Pos:      e.pos,
					Analyzer: "unusedignore",
					Message: fmt.Sprintf(
						"unused //lint:ignore %s: no %s diagnostic is suppressed here; delete the directive",
						e.analyzer, e.analyzer),
				})
			}
		}
	}
}

// RunConfig tunes one RunAnalyzers invocation.
type RunConfig struct {
	// Facts is the fact index handed to analyzers. When nil, a
	// package-local index is computed from the pass's own files.
	Facts *Facts
	// AuditIgnores enables the unused-suppression audit. Only meaningful
	// when the full registry runs with module-wide facts — a partial run
	// fires fewer diagnostics, so its unused-ignore signal is noise.
	AuditIgnores bool
}

// RunAnalyzers applies every analyzer to one type-checked package and
// returns the surviving diagnostics (suppressions applied, _test.go files
// dropped), sorted by position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, cfg RunConfig) ([]Diagnostic, error) {
	facts := cfg.Facts
	if facts == nil {
		facts = NewFacts()
		ComputeFacts(fset, files, pkg, info, facts)
	}
	sup := collectSuppressions(fset, files)
	var out []Diagnostic
	ranNames := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ranNames[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     facts,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if strings.HasSuffix(pos.Filename, "_test.go") {
				return
			}
			if sup.covers(pos, name) {
				return
			}
			d.Analyzer = name
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
	}
	if cfg.AuditIgnores {
		sup.auditUnused(fset, ranNames, func(d Diagnostic) { out = append(out, d) })
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
