// Package deterministic enforces the simulator's reproducibility
// invariant (DESIGN.md §7): a seeded run must produce byte-identical
// output. Inside the simulator packages — core, fog, sim, experiments,
// selection — it forbids the three classic leaks of nondeterminism:
//
//  1. wall-clock time (time.Now / Since / Sleep / timers),
//  2. the global math/rand source (use the seeded internal/rng streams),
//  3. output whose order inherits map iteration order (appending to an
//     outer slice, or printing, inside a range-over-map without a
//     later sort of that slice in the same function).
//
// Live-networking packages (fognet, faultnet, cmds) are exempt: real I/O
// needs real clocks.
package deterministic

import (
	"go/ast"
	"go/types"

	"cloudfog/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "deterministic",
	Doc:  "forbid wall-clock time, global math/rand, and map-iteration-ordered output in simulator packages",
	Run:  run,
}

// simulatorPkgs are the package *names* the invariant covers. Matching by
// name rather than import path keeps fixtures honest: a testdata package
// named "sim" is checked exactly like internal/sim.
var simulatorPkgs = map[string]bool{
	"core":        true,
	"fog":         true,
	"sim":         true,
	"experiments": true,
	"selection":   true,
	// checkpoint encodes/replays the authoritative world: any wall-clock
	// read or map-order dependence there breaks bit-identical restore.
	"checkpoint": true,
	// The parallel tick pipeline (core/parallel.go) rests its bit-identical
	// guarantee on these: rng supplies the splittable per-shard streams,
	// stats the order-insensitive accumulator/histogram merges, and
	// workload/netmodel the hash-keyed per-player draws the concurrent
	// compute phase is allowed to make.
	"rng":      true,
	"stats":    true,
	"workload": true,
	"netmodel": true,
	// transport is deliberately absent: it is real-I/O code whose deadline
	// and pacing logic legitimately reads the wall clock. Its determinism-
	// critical pieces (Header stamping, RecvTracker ordering) are enforced
	// by epochstamp and the transport package's own tests instead.
}

// wallClockFuncs are the time package functions that read the wall clock
// or real timers.
var wallClockFuncs = map[string]bool{
	"time.Now":       true,
	"time.Since":     true,
	"time.Until":     true,
	"time.Sleep":     true,
	"time.After":     true,
	"time.Tick":      true,
	"time.NewTicker": true,
	"time.NewTimer":  true,
	"time.AfterFunc": true,
}

// randConstructors are math/rand package functions that do NOT touch the
// global source and are therefore allowed (a seeded private source is
// deterministic).
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	if !simulatorPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapOrder(pass, n.Body)
				}
				return true
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	full := fn.FullName()
	if wallClockFuncs[full] {
		pass.Reportf(call.Pos(),
			"%s in simulator package %s: wall-clock time breaks seeded reproducibility; inject a clock or derive time from the simulated tick", full, pass.Pkg.Name())
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil { // methods on a private *rand.Rand are fine
		return
	}
	if randConstructors[fn.Name()] {
		return
	}
	pass.Reportf(call.Pos(),
		"global %s.%s in simulator package %s: the shared source is unseeded; use the seeded internal/rng streams", path, fn.Name(), pass.Pkg.Name())
}

// checkMapOrder flags range-over-map loops in body whose iteration order
// leaks into output: appends to a slice declared outside the loop that is
// never sorted later in the same function, or direct printing.
func checkMapOrder(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, body, rng)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			target := rootIdentObj(pass, call.Args[0])
			if target == nil {
				return true
			}
			// Only order-sensitive if the slice outlives the loop.
			if target.Pos() > rng.Pos() && target.Pos() < rng.End() {
				return true
			}
			if sortedLater(pass, fnBody, rng, target) {
				return true
			}
			pass.Reportf(call.Pos(),
				"append to %s inside range over map: element order inherits map iteration order; sort %s afterwards or iterate sorted keys", target.Name(), target.Name())
			return true
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "fmt" && (fn.Name() == "Print" || fn.Name() == "Printf" ||
			fn.Name() == "Println" || fn.Name() == "Fprint" || fn.Name() == "Fprintf" ||
			fn.Name() == "Fprintln") {
			pass.Reportf(call.Pos(),
				"fmt.%s inside range over map: output order inherits map iteration order; iterate sorted keys", fn.Name())
		}
		return true
	})
}

// rootIdentObj resolves the base identifier of e (x, x.f, x[i]) to its
// object.
func rootIdentObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// sortedLater reports whether, after the range loop, the same function
// passes the slice to a sort.* or slices.Sort* call — the canonical
// "collect then sort" pattern.
func sortedLater(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < rng.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if rootIdentObj(pass, arg) == target {
				found = true
			}
		}
		return true
	})
	return found
}
