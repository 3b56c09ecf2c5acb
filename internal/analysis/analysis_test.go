package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// runOn type-checks one synthetic file and runs the given analyzers over
// it with the unused-suppression audit enabled, returning the surviving
// diagnostics.
func runOn(t *testing.T, src string, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	diags, err := RunAnalyzers(fset, []*ast.File{f}, pkg, info, analyzers, RunConfig{AuditIgnores: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags, fset
}

// flagGlobals reports every package-level var declaration — a trivial
// analyzer that gives the suppression machinery something to suppress.
var flagGlobals = &Analyzer{
	Name: "flagglobals",
	Doc:  "test analyzer: reports package-level vars",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				pass.Reportf(gd.Pos(), "package-level var")
			}
		}
		return nil
	},
}

func TestUnusedIgnoreReported(t *testing.T) {
	const src = `package p

//lint:ignore flagglobals this const never triggers the analyzer
const x = 1
`
	diags, fset := runOn(t, src, []*Analyzer{flagGlobals})
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %d, want 1 unusedignore; got %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "unusedignore" {
		t.Errorf("analyzer = %q, want unusedignore", d.Analyzer)
	}
	if !strings.Contains(d.Message, "unused //lint:ignore flagglobals") {
		t.Errorf("message = %q, want it to name the dead directive", d.Message)
	}
	if pos := fset.Position(d.Pos); pos.Line != 3 {
		t.Errorf("reported at line %d, want 3 (the directive itself)", pos.Line)
	}
}

func TestUsedIgnoreNotReported(t *testing.T) {
	const src = `package p

//lint:ignore flagglobals intentional global for the test
var x = 1
`
	diags, _ := runOn(t, src, []*Analyzer{flagGlobals})
	if len(diags) != 0 {
		t.Fatalf("diagnostics = %d, want 0 (the ignore suppresses and is therefore used); got %+v", len(diags), diags)
	}
}

func TestIgnoreForAbsentAnalyzerLeftAlone(t *testing.T) {
	// An ignore naming an analyzer outside the run set may be load-bearing
	// in a fuller run; the audit must not call it unused.
	const src = `package p

//lint:ignore someotherlint suppresses a diagnostic this run cannot see
const x = 1
`
	diags, _ := runOn(t, src, []*Analyzer{flagGlobals})
	if len(diags) != 0 {
		t.Fatalf("diagnostics = %d, want 0; got %+v", len(diags), diags)
	}
}

func TestUnusedWildcardIgnoreReported(t *testing.T) {
	// "cloudfoglint" matches every analyzer, so an unused wildcard is
	// always dead weight regardless of the run set.
	const src = `package p

//lint:ignore cloudfoglint nothing fires here
const x = 1
`
	diags, _ := runOn(t, src, []*Analyzer{flagGlobals})
	if len(diags) != 1 || diags[0].Analyzer != "unusedignore" {
		t.Fatalf("diagnostics = %+v, want one unusedignore for the wildcard", diags)
	}
}

func TestBareIgnoreWithoutReasonKeepsDiagnostic(t *testing.T) {
	const src = `package p

//lint:ignore flagglobals
var x = 1
`
	diags, _ := runOn(t, src, []*Analyzer{flagGlobals})
	if len(diags) != 1 || diags[0].Analyzer != "flagglobals" {
		t.Fatalf("diagnostics = %+v, want the flagglobals diagnostic to survive a reasonless ignore", diags)
	}
}
