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
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
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

// ringWorld builds an n-party ring AC2T over two asset chains plus a
// witness chain: participant i pays participant i+1 on chain c(i%2).
// Rings have Diam(D) = n, making them the Figure 10 workload.
func ringWorld(seed uint64, n int) (*xchain.World, *graph.Graph, []*xchain.Participant, error) {
	b := xchain.NewBuilder(seed)
	ps := make([]*xchain.Participant, n)
	for i := range ps {
		ps[i] = b.Participant(fmt.Sprintf("p%d", i))
	}
	assetChains := []chain.ID{"asset-a", "asset-b"}
	for _, id := range assetChains {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	b.Chain(xchain.DefaultChainSpec("witness"))
	for i := range ps {
		b.Fund(ps[i], assetChains[i%2], 1_000_000)
	}
	w, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := graph.Ring(int64(seed), xchain.Addrs(ps), 10_000, assetChains)
	if err != nil {
		return nil, nil, nil, err
	}
	return w, g, ps, nil
}

// runOne stands the AC2T up through the engine's protocol table (the
// world's witness chain is "witness"), runs it out to the deadline and
// grades it.
func runOne(proto engine.Protocol, w *xchain.World, g *graph.Graph, ps []*xchain.Participant, deadline sim.Time) (core.Runner, *xchain.Outcome, error) {
	r, err := engine.NewRunner(w, proto, engine.AC2T{Graph: g, Participants: ps, Witness: "witness", Depth: confirmDepth})
	if err != nil {
		return nil, nil, err
	}
	r.Start()
	w.RunOut(deadline)
	return r, r.Grade(), nil
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

// All runs every experiment in paper order.
func All(seed uint64) []*Result {
	return []*Result{
		Fig8(seed),
		Fig9(seed),
		Fig10(seed, 8),
		Cost(seed),
		WitnessChoice(seed),
		Table1(seed),
		Atomicity(seed, 5),
		Complex(seed),
		Scale(seed),
		EngineLoad(seed),
	}
}
