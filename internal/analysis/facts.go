// Per-package exported facts: a lightweight call-graph and construct
// summary computed once per load and shared by every analyzer that needs
// to reason across function (and package) boundaries. This is the
// dependency-free stand-in for x/tools' analysis facts: instead of
// serialized per-object payloads, the driver computes one FuncFact per
// declared function over every package it loads and hands analyzers the
// merged index via Pass.Facts.
//
// A FuncFact records the function's //cfg: directives, its statically
// resolved callees, and the positions of every construct phasepure cares
// about — global-variable writes, lock acquisitions, goroutine/channel
// use, wall-clock and global-rand reads, map-iteration-ordered output and
// rng streams reached through the receiver or a global. phasepure walks
// the call graph with Facts.Reach and reports the recorded sites with the
// call chain that makes them reachable.
//
// Directives are comment lines of the form
//
//	//cfg:<name>
//
// in a function's doc comment: computephase marks phasepure's roots,
// applyphase its contract boundary, epochcheck blesses discard-rule
// validators (see the analyzer docs).
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

// SiteKind classifies one construct recorded in a FuncFact.
type SiteKind int

const (
	// SiteGlobalWrite is an assignment, inc/dec, or address-take whose
	// target roots at a package-level variable.
	SiteGlobalWrite SiteKind = iota
	// SiteLock is a mutex Lock/RLock acquisition.
	SiteLock
	// SiteGo is a go statement.
	SiteGo
	// SiteChan is a channel send, receive, or select.
	SiteChan
	// SiteWallClock is a wall-clock or timer read (time.Now & friends).
	SiteWallClock
	// SiteGlobalRand is a draw from the global math/rand source.
	SiteGlobalRand
	// SiteMapOrdered is output assembled in map-iteration order (append
	// to an outer slice, never sorted later, or printing inside the range).
	SiteMapOrdered
	// SiteForeignRNG is an rng.Rand method call whose receiver roots at
	// the enclosing method's receiver or a package-level variable — a
	// stream whose consumption order depends on scheduling, not on the
	// caller-threaded per-shard stream.
	SiteForeignRNG
)

// Site is one recorded construct.
type Site struct {
	Kind SiteKind
	Pos  token.Pos
	// What is a short human-readable description of the construct,
	// interpolated into diagnostics ("go statement", "write to package
	// variable tickCount").
	What string
}

// CallFact is one statically resolved call site.
type CallFact struct {
	// Name is the callee's fully qualified name
	// ("pkg.Func" / "(*pkg.T).Method"); interface methods resolve to the
	// interface's method and therefore match no FuncFact.
	Name string
	Pos  token.Pos
}

// FuncFact is the exported summary of one declared function.
type FuncFact struct {
	// Name is the function's fully qualified name.
	Name string
	// Pos is the declaration position.
	Pos token.Pos
	// Directives holds the //cfg:<name> markers from the doc comment.
	Directives map[string]bool
	// Calls lists the statically resolved call sites in source order.
	Calls []CallFact
	// Sites lists the recorded constructs in source order.
	Sites []Site
}

// Facts is the merged per-function fact index over every loaded package.
type Facts struct {
	Funcs map[string]*FuncFact
}

// NewFacts returns an empty index.
func NewFacts() *Facts { return &Facts{Funcs: make(map[string]*FuncFact)} }

// WithDirective returns every function carrying the named //cfg:
// directive, sorted by name for deterministic traversal order.
func (f *Facts) WithDirective(name string) []*FuncFact {
	var out []*FuncFact
	for _, ff := range f.Funcs {
		if ff.Directives[name] {
			out = append(out, ff)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Reach walks the static call graph from the named roots and returns, for
// every reachable function with a fact, the call chain that reaches it
// (root first, the function itself last). Traversal does not descend into
// functions where stop returns true — they are still present in the
// result (the contract boundary is reachable; its internals are not).
// Breadth-first with sorted expansion, so chains are minimal and
// deterministic.
func (f *Facts) Reach(roots []string, stop func(*FuncFact) bool) map[string][]string {
	parent := make(map[string]string)
	reached := make(map[string][]string)
	queue := append([]string(nil), roots...)
	sort.Strings(queue)
	for _, r := range queue {
		parent[r] = ""
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		ff := f.Funcs[name]
		if ff == nil {
			continue // stdlib or interface method: no summary, no descent
		}
		// Reconstruct the chain lazily from parent links.
		var chain []string
		for n := name; n != ""; n = parent[n] {
			chain = append(chain, n)
		}
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		reached[name] = chain
		if stop != nil && stop(ff) && len(chain) > 1 {
			continue
		}
		next := make([]string, 0, len(ff.Calls))
		for _, c := range ff.Calls {
			if _, seen := parent[c.Name]; seen {
				continue
			}
			parent[c.Name] = name
			next = append(next, c.Name)
		}
		sort.Strings(next)
		queue = append(queue, next...)
	}
	return reached
}

var directiveRe = regexp.MustCompile(`^//cfg:(\w+)\s*$`)

// Directives extracts //cfg: markers from a doc comment. Exported for
// analyzers that consult annotations directly from the AST (epochstamp's
// //cfg:epochcheck blessing) rather than through the fact index.
func Directives(doc *ast.CommentGroup) map[string]bool { return funcDirectives(doc) }

// funcDirectives extracts //cfg: markers from a doc comment.
func funcDirectives(doc *ast.CommentGroup) map[string]bool {
	if doc == nil {
		return nil
	}
	var dirs map[string]bool
	for _, c := range doc.List {
		if m := directiveRe.FindStringSubmatch(strings.TrimSpace(c.Text)); m != nil {
			if dirs == nil {
				dirs = make(map[string]bool)
			}
			dirs[m[1]] = true
		}
	}
	return dirs
}

// wallClockFullNames are the time-package reads of real clocks/timers.
var wallClockFullNames = map[string]bool{
	"time.Now": true, "time.Since": true, "time.Until": true,
	"time.Sleep": true, "time.After": true, "time.Tick": true,
	"time.NewTicker": true, "time.NewTimer": true, "time.AfterFunc": true,
}

// randGlobalConstructors are math/rand functions that do not touch the
// shared source (mirrors the deterministic analyzer's allowance).
var randGlobalConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// ComputeFacts summarizes every function declared in the package and
// merges the results into idx.
func ComputeFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, idx *Facts) {
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			ff := &FuncFact{
				Name:       obj.FullName(),
				Pos:        fd.Pos(),
				Directives: funcDirectives(fd.Doc),
			}
			fw := &factWalker{info: info, pkg: pkg, fact: ff, fn: fd}
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				fw.recv = info.Defs[fd.Recv.List[0].Names[0]]
			}
			fw.walkBody(fd.Body)
			// _test.go files carry no facts: the invariants guard
			// production paths only.
			if strings.HasSuffix(fset.Position(fd.Pos()).Filename, "_test.go") {
				continue
			}
			idx.Funcs[ff.Name] = ff
		}
	}
}

// factWalker is the per-function traversal state.
type factWalker struct {
	info *types.Info
	pkg  *types.Package
	fact *FuncFact
	fn   *ast.FuncDecl
	recv types.Object // method receiver, nil for plain functions
}

func (w *factWalker) site(kind SiteKind, pos token.Pos, what string) {
	w.fact.Sites = append(w.fact.Sites, Site{Kind: kind, Pos: pos, What: what})
}

func (w *factWalker) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				w.checkGlobalWrite(lhs)
			}
		case *ast.IncDecStmt:
			w.checkGlobalWrite(n.X)
		case *ast.UnaryExpr:
			switch n.Op {
			case token.AND:
				w.checkGlobalWrite(n.X)
			case token.ARROW:
				w.site(SiteChan, n.Pos(), "channel receive")
			}
		case *ast.GoStmt:
			w.site(SiteGo, n.Pos(), "go statement")
		case *ast.SendStmt:
			w.site(SiteChan, n.Pos(), "channel send")
		case *ast.SelectStmt:
			w.site(SiteChan, n.Pos(), "select statement")
		case *ast.RangeStmt:
			w.checkMapRange(n)
		}
		return true
	})
}

func (w *factWalker) call(call *ast.CallExpr) {
	fn := Callee(w.info, call)
	if fn == nil {
		return // conversion, builtin, or a call through a function value
	}
	if orig := fn.Origin(); orig != nil {
		fn = orig
	}
	full := fn.FullName()
	w.fact.Calls = append(w.fact.Calls, CallFact{Name: full, Pos: call.Pos()})
	if wallClockFullNames[full] {
		w.site(SiteWallClock, call.Pos(), full+" wall-clock read")
	}
	if fn.Pkg() != nil {
		if p := fn.Pkg().Path(); (p == "math/rand" || p == "math/rand/v2") && signatureRecv(fn) == nil && !randGlobalConstructors[fn.Name()] {
			w.site(SiteGlobalRand, call.Pos(), p+"."+fn.Name()+" draw from the global source")
		}
	}
	w.checkLock(call, fn)
	w.checkRNGReceiver(call, fn)
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func signatureRecv(fn *types.Func) *types.Var {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	return sig.Recv()
}

// checkLock records Lock/RLock acquisitions (releases are irrelevant to
// the phase contract: acquiring at all is the signal).
func (w *factWalker) checkLock(call *ast.CallExpr, fn *types.Func) {
	if fn.Name() != "Lock" && fn.Name() != "RLock" {
		return
	}
	recv := signatureRecv(fn)
	if recv == nil {
		return
	}
	if named, ok := deref(recv.Type()).(*types.Named); ok {
		if p := named.Obj().Pkg(); p != nil && p.Path() == "sync" {
			w.site(SiteLock, call.Pos(), fn.Name()+" of "+types.ExprString(call.Fun))
		}
	}
}

// checkRNGReceiver flags rng.Rand draws whose stream roots at the
// enclosing method's receiver or at a package-level variable: such a
// stream is shared mutable state, and its consumption order depends on
// who else draws from it.
func (w *factWalker) checkRNGReceiver(call *ast.CallExpr, fn *types.Func) {
	recv := signatureRecv(fn)
	if recv == nil {
		return
	}
	named, ok := deref(recv.Type()).(*types.Named)
	if !ok || named.Obj().Name() != "Rand" {
		return
	}
	if p := named.Obj().Pkg(); p == nil || !strings.HasSuffix(p.Path(), "internal/rng") {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	root := rootObj(w.info, sel.X)
	if root == nil {
		return
	}
	if root == w.recv {
		w.site(SiteForeignRNG, call.Pos(), "rng draw via receiver stream "+types.ExprString(sel.X))
	} else if v, ok := root.(*types.Var); ok && v.Parent() == w.pkg.Scope() {
		w.site(SiteForeignRNG, call.Pos(), "rng draw via package-level stream "+types.ExprString(sel.X))
	}
}

func (w *factWalker) checkGlobalWrite(e ast.Expr) {
	root := rootObj(w.info, e)
	v, ok := root.(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if v.Parent() == w.pkg.Scope() || (v.Pkg() != nil && v.Parent() == v.Pkg().Scope()) {
		w.site(SiteGlobalWrite, e.Pos(), "write to package variable "+v.Name())
	}
}

// checkMapRange records output assembled in map-iteration order: appends
// to a slice that outlives the loop and is never sorted later in the
// same function, or printing inside the range body.
func (w *factWalker) checkMapRange(rng *ast.RangeStmt) {
	tv, ok := w.info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	body := w.fn.Body
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			target := rootObj(w.info, call.Args[0])
			if target == nil {
				return true
			}
			if target.Pos() > rng.Pos() && target.Pos() < rng.End() {
				return true // loop-local: dies with the iteration
			}
			if factSortedLater(w.info, body, rng, target) {
				return true
			}
			w.site(SiteMapOrdered, call.Pos(), "append to "+target.Name()+" in map-iteration order")
			return true
		}
		if fn := Callee(w.info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			strings.HasPrefix(fn.Name(), "Print") {
			w.site(SiteMapOrdered, call.Pos(), "fmt."+fn.Name()+" in map-iteration order")
		}
		return true
	})
}

// factSortedLater mirrors the deterministic analyzer's collect-then-sort
// allowance.
func factSortedLater(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < rng.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := Callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if rootObj(info, arg) == target {
				found = true
			}
		}
		return true
	})
	return found
}

// rootObj resolves the base identifier of x, x.f, x[i], *x to its object.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[v]; o != nil {
				return o
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// FormatChain renders a Reach call chain for a diagnostic: the root and
// the immediate path, compressed when long.
func FormatChain(chain []string) string {
	short := make([]string, len(chain))
	for i, c := range chain {
		short[i] = shortFuncName(c)
	}
	if len(short) > 4 {
		return fmt.Sprintf("%s -> ... -> %s -> %s", short[0], short[len(short)-2], short[len(short)-1])
	}
	return strings.Join(short, " -> ")
}

// ShortFuncName trims the package path from a fully qualified function
// name for diagnostics: "(*a/b/c.T).M" -> "(*c.T).M".
func ShortFuncName(full string) string { return shortFuncName(full) }

func shortFuncName(full string) string {
	if i := strings.LastIndexByte(full, '/'); i >= 0 {
		prefix := ""
		if strings.HasPrefix(full, "(*") {
			prefix = "(*"
		} else if strings.HasPrefix(full, "(") {
			prefix = "("
		}
		full = prefix + full[i+1:]
	}
	return full
}
