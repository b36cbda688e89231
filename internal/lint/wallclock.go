package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Wallclock forbids reading the process's wall clock inside
// deterministic packages. Engine outcomes must be a pure function of
// the seed; `time.Now` (and everything built on it — timers, tickers,
// `time.Since`) injects the host's scheduler into the schedule. All
// simulated time flows through sim.Time / sim.Sim.
//
// Built-in allowlist: cmd/* front-ends (wall-time reporting is their
// job — they are outside the deterministic scope by construction).
// Anything else needs an `//ac3:wallclock <justification>` annotation.
var Wallclock = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock time (time.Now, time.Since, timers) in deterministic packages; " +
		"virtual sim.Time is the only clock the engine may observe",
	Run: runWallclock,
}

// wallclockFuncs are the package-level functions of "time" that read
// or schedule on the wall clock. Pure constructors/parsers
// (time.Date, time.Unix, time.ParseDuration, ...) stay legal.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

func runWallclock(pass *analysis.Pass) (any, error) {
	if !deterministicPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	dirs := collectDirectives(pass)
	dirs.reportMissingJustifications()
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] {
				return true
			}
			if dirs.allowed("wallclock", call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in deterministic package %s; use the sim's virtual clock, or annotate //ac3:wallclock with a justification",
				fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}

// calleeFunc resolves the *types.Func a call invokes, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
