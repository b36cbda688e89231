// Package lint is ac3lint: a suite of static analyzers that
// machine-check this repository's determinism contract (ADR-009).
//
// Every headline number this reproduction produces rests on one
// invariant: an engine run is a pure function of its seed —
// byte-identical across repeated runs and worker counts — because
// virtual time, forked RNGs, and canonical orderings are the only
// schedule inputs. That invariant used to be enforced only by
// after-the-fact byte-compare smokes, and it was silently broken twice
// (a process-global gob type-id counter leaking into contract
// addresses; map-iteration order leaking into a genesis block). The
// analyzers here move those checks to review time:
//
//   - wallclock: no wall-clock time in deterministic packages
//   - globalrand: no ambient RNGs; every stream forks from a sim seed
//   - maporder: no map-iteration order flowing into ordered output
//   - shardworld: no concurrency inside shard-world packages
//   - globalstate: no mutable package-level state, init registration
//     or encoding/gob
//
// Judgment-call exceptions are annotated in source as
// `//ac3:<analyzer> <justification>` — the justification is required,
// and the annotation is visible at the use site forever.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// All lists every analyzer in the suite, in reporting order.
// cmd/ac3lint registers exactly this set (a meta-test enforces it).
var All = []*analysis.Analyzer{
	Wallclock,
	GlobalRand,
	MapOrder,
	ShardWorld,
	GlobalState,
}

// Finding is one rendered diagnostic.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// RunPackage applies every analyzer in analyzers to pkg and returns
// the findings sorted by position.
func RunPackage(pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			ReadFile:  readFileCached(),
			Report: func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				out = append(out, Finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// The determinism contract's package scopes. Scope is keyed on import
// paths so the same rules drive both the real tree and the analyzer
// test fixtures (which are loaded under synthetic in-scope paths).

// deterministicPkg reports whether path is inside the determinism
// contract: everything under internal/ except the lint suite itself
// (which shells out to `go list` and is never linked into the engine).
// cmd/* front-ends are exempt by construction — wall-clock reporting
// and process plumbing live there.
func deterministicPkg(path string) bool {
	if !strings.HasPrefix(path, "repro/internal/") {
		return false
	}
	return !strings.HasPrefix(path, "repro/internal/lint")
}

// shardWorldPkgs are the packages that execute inside a single
// shard-world goroutine and must stay concurrency-free: the
// one-goroutine-per-shard-world rule is what lets chain state,
// executors, and protocol runtimes skip locks entirely.
var shardWorldPkgs = map[string]bool{
	"repro/internal/chain":     true,
	"repro/internal/miner":     true,
	"repro/internal/core":      true,
	"repro/internal/contracts": true,
	"repro/internal/protocol":  true,
}
