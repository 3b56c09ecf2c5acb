// Package analysistest runs an analyzer over fixture packages under a
// testdata directory and checks its diagnostics against expectations
// written in the fixtures themselves, mirroring
// golang.org/x/tools/go/analysis/analysistest:
//
//	conn.Write(b) // want `Write without a preceding SetWriteDeadline`
//
// Each `// want` comment carries one or more quoted regexes; every
// diagnostic reported on that line must match one of them, and every
// want must be matched by exactly one diagnostic. Fixtures live in
// testdata/src/<pkg>/*.go and may import both the standard library and
// cloudfog packages — the loader type-checks them against real export
// data, so fixture violations exercise the same type-driven matching as
// the production tree.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cloudfog/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	abs, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return abs
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run checks analyzer a against every named fixture package under
// testdata/src.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := analysis.Shared()
	for _, pkg := range pkgs {
		dir := filepath.Join(testdata, "src", pkg)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no fixture files in %s", a.Name, dir)
		}
		tp, err := loader.Check(pkg, files)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		wants, err := collectWants(loader.Fset, tp)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := analysis.RunAnalyzers(loader.Fset, tp.Files, tp.Pkg, tp.Info, []*analysis.Analyzer{a}, analysis.RunConfig{})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			if !consume(wants, pos, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s: %s", a.Name, pos, d.Message)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none",
					a.Name, w.re, w.file, w.line)
			}
		}
	}
}

func consume(wants []*want, pos token.Position, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants extracts every `// want "re"` expectation from the
// fixture's comments.
func collectWants(fset *token.FileSet, tp *analysis.TypedPackage) ([]*want, error) {
	var wants []*want
	for _, f := range tp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				res, err := parseWantPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s: %v", pos, err)
				}
				for _, re := range res {
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

// parseWantPatterns splits `"re1" "re2"` (double-quoted or backquoted)
// into compiled regexes.
func parseWantPatterns(s string) ([]*regexp.Regexp, error) {
	var res []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var lit string
		switch s[0] {
		case '"':
			end := matchDoubleQuote(s)
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern: %s", s)
			}
			lit = s[:end+1]
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern: %s", s)
			}
			lit = s[:end+2]
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("want patterns must be quoted: %s", s)
		}
		unq, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %s: %v", lit, err)
		}
		re, err := regexp.Compile(unq)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %s: %v", lit, err)
		}
		res = append(res, re)
		s = strings.TrimSpace(s)
	}
	return res, nil
}

// matchDoubleQuote returns the index of the closing quote of the
// double-quoted literal starting at s[0], honoring backslash escapes.
func matchDoubleQuote(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}
