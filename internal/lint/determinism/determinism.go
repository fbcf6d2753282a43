// Package determinism forbids nondeterminism sources in the simulator's
// deterministic packages: wall-clock reads (time.Now/Since), the global
// math/rand generator, and map-range iteration (whose order leaks into
// anything it feeds). Determinism is the repo's foundational invariant —
// golden grids, the run cache, and the litmus corpus all assume identical
// inputs produce identical outputs.
//
// Seeded generators stay allowed: rand.New(rand.NewSource(seed)) is how the
// network models jitter reproducibly, so the rand.New/NewSource/NewZipf
// constructors (and all methods on a *rand.Rand) pass. A finding that is
// provably order-independent can be annotated with
// "//lint:allow determinism <reason>" on its line or the line above.
//
// A second, narrower tier covers the clocked packages (sweepd): they are
// allowed randomness and map iteration, but every wall-clock read must go
// through the package's injectable Clock so watchdog deadlines and retry
// backoff stay testable — naked time.Now/time.Since/time.Sleep/time.After
// is a finding there. The Clock implementation itself carries the one
// sanctioned "//lint:allow determinism" annotation.
package determinism

import (
	"go/ast"
	"go/types"
	"path"

	"invisifence/internal/lint/analysis"
)

// deterministicPkgs names the packages (by final import-path element or
// package name) whose outputs must be bit-reproducible.
var deterministicPkgs = map[string]bool{
	"sim":         true,
	"network":     true,
	"coherence":   true,
	"fencesearch": true,
	"sweep":       true,
	"staticfence": true,
	"node":        true,
	"cpu":         true,
	"core":        true,
	"cache":       true,
	"storebuffer": true,
	"memctrl":     true,
}

// clockedPkgs names the packages that must take time from an injectable
// Clock rather than the wall directly. They are not deterministic — a
// server's schedule depends on real concurrency — but their timeout and
// backoff logic must be drivable by a test double.
var clockedPkgs = map[string]bool{
	"sweepd": true,
}

// clockedForbidden lists the package-level time functions a clocked
// package must route through its Clock.
var clockedForbidden = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true, "Tick": true, "NewTimer": true, "NewTicker": true}

// randAllowed lists math/rand package-level constructors that are fine:
// they only wrap an explicit seed.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Analyzer is the check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now, global math/rand, and map-range iteration in deterministic packages (sim, network, coherence, fencesearch, sweep, staticfence); forbid naked time calls in clocked packages (sweepd)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	deterministic := deterministicPkgs[path.Base(pass.Pkg.Path())] || deterministicPkgs[pass.Pkg.Name()]
	clocked := clockedPkgs[path.Base(pass.Pkg.Path())] || clockedPkgs[pass.Pkg.Name()]
	if !deterministic && !clocked {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if deterministic {
					checkCall(pass, n)
				} else {
					checkClockedCall(pass, n)
				}
			case *ast.RangeStmt:
				if deterministic {
					checkRange(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// callTarget resolves the called function, if it can be named.
func callTarget(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch e := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.Ident:
		id = e
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := callTarget(pass, call)
	if fn == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(), "call to time.%s in deterministic package %s: derive time from the simulated clock", fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on an explicitly-seeded *rand.Rand are fine
		}
		if randAllowed[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(), "call to global math/rand.%s in deterministic package %s: use rand.New(rand.NewSource(seed))", fn.Name(), pass.Pkg.Name())
	}
}

// checkClockedCall enforces the clocked-package rule: every wall-clock
// read or timer goes through the injectable Clock.
func checkClockedCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := callTarget(pass, call)
	if fn == nil || fn.Pkg().Path() != "time" {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods on a time.Time/Timer value are fine
	}
	if !clockedForbidden[fn.Name()] {
		return
	}
	pass.Reportf(call.Pos(), "naked time.%s in clocked package %s: go through the injectable Clock (Options.Clock) so deadlines and backoff are testable", fn.Name(), pass.Pkg.Name())
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	pass.Reportf(rs.Pos(), "map-range iteration in deterministic package %s: iteration order leaks into results; iterate sorted keys, or annotate //lint:allow determinism if provably order-independent", pass.Pkg.Name())
}
