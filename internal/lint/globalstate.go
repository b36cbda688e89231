package lint

import (
	"go/ast"
	"go/token"

	"repro/internal/lint/analysis"
)

// GlobalState flags mutable package-level state and init-order-
// sensitive registration in deterministic packages — the class of bug
// behind the gob type-id leak: a process-global counter made payload
// bytes (and every contract address derived from them) a function of
// process encode history rather than of the value. Package-level
// mutable state is shared across every shard world in the process, so
// it is either a correctness bug (worlds contaminate each other) or a
// determinism bug (bytes depend on which world touched it first).
//
// Built-in allowances:
//   - constants (use them wherever possible);
//   - sentinel errors: `var ErrX = errors.New(...)` / fmt.Errorf —
//     written once, compared by identity, never mutated by
//     convention enforced throughout the stdlib;
//   - blank compile-time assertions (`var _ Iface = (*T)(nil)`).
//
// Everything else — read-only tables, zero-value sentinels — must
// carry `//ac3:globalstate <justification>` so the exception and its
// safety argument live at the site.
//
// Importing encoding/gob is flagged too: it is the library that holds
// that counter, and every wire type has a typed codec over package
// wire instead (ADR-012), so the bug class cannot be reintroduced.
var GlobalState = &analysis.Analyzer{
	Name: "globalstate",
	Doc: "flag mutable package-level variables, init() registration and encoding/gob " +
		"in deterministic packages (process-global state breaks shard-world isolation)",
	Run: runGlobalState,
}

func runGlobalState(pass *analysis.Pass) (any, error) {
	if !deterministicPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	dirs := collectDirectives(pass)
	dirs.reportMissingJustifications()
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` && !dirs.allowed("globalstate", imp.Pos()) {
				pass.Reportf(imp.Pos(), "import \"encoding/gob\" in deterministic package %s: gob numbers wire types from a process-global counter in order of first use, so encoded bytes depend on process history; give the type a codec over package wire", pass.Pkg.Path())
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" && !dirs.allowed("globalstate", d.Pos()) {
					pass.Reportf(d.Pos(), "init function in deterministic package %s: init-order-sensitive work is process-global (the gob type-id bug class); prefer explicit construction, or annotate //ac3:globalstate", pass.Pkg.Path())
				}
			case *ast.GenDecl:
				checkGlobalVars(pass, dirs, d)
			}
		}
	}
	return nil, nil
}

func checkGlobalVars(pass *analysis.Pass, dirs *directiveSet, d *ast.GenDecl) {
	if d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if name.Name == "_" {
				continue // compile-time interface assertion
			}
			if sentinelError(pass, vs, i) {
				continue
			}
			if dirs.allowed("globalstate", name.Pos()) || dirs.allowed("globalstate", d.Pos()) {
				continue
			}
			pass.Reportf(name.Pos(), "package-level var %q is mutable process-global state in deterministic package %s; use a const, hang it off the world's root object, or annotate //ac3:globalstate with why sharing is safe", name.Name, pass.Pkg.Path())
		}
	}
}

// sentinelError reports whether names[i] is a conventional sentinel:
// an Err-prefixed variable initialized with errors.New or fmt.Errorf.
func sentinelError(pass *analysis.Pass, vs *ast.ValueSpec, i int) bool {
	name := vs.Names[i].Name
	if len(name) < 3 || (name[:3] != "Err" && name[:3] != "err") {
		return false
	}
	if i >= len(vs.Values) {
		return false
	}
	call, ok := ast.Unparen(vs.Values[i]).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p, n := fn.Pkg().Path(), fn.Name()
	return (p == "errors" && n == "New") || (p == "fmt" && n == "Errorf")
}
