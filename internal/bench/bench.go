// Package bench drives the reproduction of every table and figure in
// the paper's evaluation (Section 6) plus the safety and scalability
// claims of Sections 1 and 5. Each experiment builds fresh simulated
// blockchain networks, runs the real protocol implementations
// (internal/swap baselines, internal/core AC3WN/AC3TW), measures, and
// renders paper-style output. cmd/ac3bench and the repository-root
// benchmarks are thin wrappers around this package.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/sim"
)

// Result is one experiment's printable outcome.
type Result struct {
	ID     string
	Title  string
	Output string
	// OK reports whether the experiment's sanity assertions held
	// (e.g. "AC3WN latency flat", "baseline violates atomicity").
	OK bool
}

// String renders the result.
func (r *Result) String() string {
	status := "ok"
	if !r.OK {
		status = "FAILED"
	}
	return fmt.Sprintf("== %s: %s [%s]\n%s", r.ID, r.Title, status, r.Output)
}

// Experiment parameters shared across runs: every chain is an
// xchain.DefaultChainSpec — block interval 10s, confirmation depth 3 —
// so Δ = (depth+1)·interval = 40s of virtual time.
const (
	blockInterval = 10 * sim.Second
	confirmDepth  = 3
	deltaNominal  = sim.Time(confirmDepth+1) * blockInterval
)

// runOne is engine.RunOne the way every laboratory experiment stands
// its AC2T up: decided on the shape's chain "witness", depth d
// everywhere.
func runOne(seed uint64, sh engine.Shape, proto engine.Protocol, sc engine.Scenario, recoverAt, deadline sim.Time) (*engine.Lab, error) {
	return engine.RunOne(seed, sh, proto, engine.AC2T{Witness: "witness", Depth: confirmDepth}, sc, recoverAt, deadline)
}

// ringRun runs proto on Figure 10's workload: an n-party ring
// (Diam(D) = n) alternating over two asset chains.
func ringRun(seed uint64, n int, proto engine.Protocol, deadline sim.Time) (*engine.Lab, error) {
	return runOne(seed, engine.Ring(int64(seed), n, []chain.ID{"asset-a", "asset-b"}), proto, engine.ScenarioCommit, 0, deadline)
}

// inDeltas converts a virtual duration to Δ units.
func inDeltas(d sim.Time) float64 { return float64(d) / float64(deltaNominal) }

// section joins blocks of output.
func section(parts ...string) string {
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p)
		if !strings.HasSuffix(p, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Experiment is one row of the evaluation: Run executes it at a seed and
// returns its rendered output and whether its sanity assertions — the
// paper's qualitative claims — held, or the error that kept it from
// running at all.
type Experiment struct {
	ID, Title string
	Run       func(seed uint64) (output string, ok bool, err error)
}

// Experiments is the evaluation in paper order; cmd/ac3bench, the
// repository-root benchmarks and this package's tests loop over it.
//
//ac3:globalstate the experiment table; written once here, read-only
var Experiments = []Experiment{
	{"fig8", "Herlihy single-leader timeline: 2·Δ·Diam(D)", fig8},
	{"fig9", "AC3WN timeline: constant 4·Δ", fig9},
	{"fig10", "AC2T latency vs Diam(D): linear baseline vs constant AC3WN",
		func(seed uint64) (string, bool, error) { return fig10(seed, 8) }},
	{"cost", "per-AC2T fees: N·(fd+ffc) vs (N+1)·(fd+ffc)", cost},
	{"witness", "choosing the witness network (risk vs asset value)", witnessChoice},
	{"table1", "chain throughput and AC2T min() composition", table1},
	{"atomicity", "all-or-nothing under crashes: HTLC baseline vs AC3WN",
		func(seed uint64) (string, bool, error) { return atomicity(seed, 5) }},
	{"complex", "cyclic and disconnected AC2T graphs (Figure 7)", complexGraphs},
	{"scale", "witness networks are horizontally scalable", scale},
	{"engine", "sharded engine sustains concurrent AC2T load without atomicity violations", engineLoad},
}

// Result runs the experiment; an error is a failed result carrying the
// message.
func (e Experiment) Result(seed uint64) *Result {
	out, ok, err := e.Run(seed)
	if err != nil {
		out, ok = err.Error(), false
	}
	return &Result{ID: e.ID, Title: e.Title, Output: out, OK: ok}
}
