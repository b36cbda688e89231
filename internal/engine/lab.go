package engine

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/xchain"
)

// The laboratory: every world outside the shard executor is a Shape,
// and every single-AC2T experiment of the paper — Figures 8 to 10,
// Section 6.2's fee counts, Figure 7's graphs, Section 1's crash hazard
// — is RunOne, one function from (seed, shape, protocol, scenario row,
// recovery time) to a graded outcome (ADR-019). Its callers: bench's
// fig8, fig9, fig10, cost, complex and atomicity, cmd/ac3sim and three
// examples. bench's scale and examples/exchangedesk run many AC2Ts on
// one Shape.Build world in a NewRunner loop of their own.

// Shape is a world as data: who takes part, which chains exist, who
// owns what, and the graph (D, t) over the parties. Parties and chains
// are created in the order listed — that order decides which keys and
// which mining randomness the seed hands out — and every chain is an
// xchain.DefaultChainSpec, capped where MaxBlockTxs says.
type Shape struct {
	// Parties names the participants; Parties[0] initiates or leads.
	Parties []string
	// Chains lists every chain of the world, a witness chain included.
	Chains []chain.ID
	// Funds[i] lists the chains on which Parties[i] owns labFunds at
	// genesis.
	Funds [][]chain.ID
	// Timestamp is the t of Equation 1; Edges are D's sub-transactions
	// between parties, by index into Parties.
	Timestamp int64
	Edges     []Transfer
	// MaxBlockTxs caps the blocks of the chains it names; every other
	// chain keeps DefaultChainSpec's 1,000.
	MaxBlockTxs map[chain.ID]int
}

// Transfer is a graph.Edge between parties that have no address yet.
type Transfer struct {
	From, To int
	Asset    vm.Amount
	Chain    chain.ID
}

// labFunds is every Fund's amount: enough for any edge the experiments
// draw, and part of the genesis blocks the goldens pin.
const labFunds = 1_000_000

// Ring is the n-party cycle p0 → p1 → … → p0 of 10,000 per edge, edge i
// on chains[i % len(chains)] with its sender funded there, plus a chain
// "witness". Diam(D) = n, which makes rings Figure 10's workload.
func Ring(t int64, n int, chains []chain.ID) Shape {
	sh := Shape{Chains: append(slices.Clone(chains), "witness"), Timestamp: t}
	for i := range n {
		on := chains[i%len(chains)]
		sh.Parties = append(sh.Parties, fmt.Sprintf("p%d", i))
		sh.Funds = append(sh.Funds, []chain.ID{on})
		sh.Edges = append(sh.Edges, Transfer{i, (i + 1) % n, 10_000, on})
	}
	return sh
}

// Pair is Figure 4's swap: alice pays a on chainA, bob pays b on
// chainB. Witness chains, if any, are created after the two.
func Pair(t int64, a vm.Amount, chainA chain.ID, b vm.Amount, chainB chain.ID, witness ...chain.ID) Shape {
	return Shape{
		Parties:   []string{"alice", "bob"},
		Chains:    append([]chain.ID{chainA, chainB}, witness...),
		Funds:     [][]chain.ID{{chainA}, {chainB}},
		Timestamp: t,
		Edges:     []Transfer{{0, 1, a, chainA}, {1, 0, b, chainB}},
	}
}

// Lab is what RunOne returns: the AC2T it stood up, its grade, and
// what its scenario row did to it — who crashed and when ("" and 0 if
// nobody), and when RunOne brought the victim back (0 if it did not).
type Lab struct {
	World                  *xchain.World
	Graph                  *graph.Graph
	Runner                 core.Runner
	Outcome                *xchain.Outcome
	Crashed                string
	CrashedAt, RecoveredAt sim.Time
}

// watchEvery is how often RunOne evaluates a row's watch: on tip
// changes, as the shard does, AC3TW's commit push can pass between two
// of them unseen (ADR-019's amendment).
const watchEvery = 100 * sim.Millisecond

// Build creates sh's parties, chains and genesis funds on a fresh
// simulator seeded with seed, in the order listed, and builds the world;
// the participants come back in Parties' order. A fund or a cap on a
// chain the shape does not list is an error, and nothing is built.
func (sh Shape) Build(seed uint64) (*xchain.World, []*xchain.Participant, error) {
	if len(sh.Funds) > len(sh.Parties) {
		return nil, nil, fmt.Errorf("engine: %d parties are funded, but the shape lists %d", len(sh.Funds), len(sh.Parties))
	}
	for i, ids := range sh.Funds {
		for _, id := range ids {
			if !slices.Contains(sh.Chains, id) {
				return nil, nil, fmt.Errorf("engine: %s is funded on %s, which the shape does not list", sh.Parties[i], id)
			}
		}
	}
	for _, id := range slices.Sorted(maps.Keys(sh.MaxBlockTxs)) {
		if !slices.Contains(sh.Chains, id) {
			return nil, nil, fmt.Errorf("engine: %s is capped, but the shape does not list it", id)
		}
	}
	b := xchain.NewBuilder(seed)
	ps := b.Participants(sh.Parties...)
	for _, id := range sh.Chains {
		spec := xchain.DefaultChainSpec(id)
		if n, ok := sh.MaxBlockTxs[id]; ok {
			spec.Params.MaxBlockTxs = n
		}
		b.Chain(spec)
	}
	for i, ids := range sh.Funds {
		for _, id := range ids {
			b.Fund(ps[i], id, labFunds)
		}
	}
	w, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return w, ps, nil
}

// RunOne builds sh on a fresh simulator seeded with seed, stands t up
// under proto (t.Graph and t.Participants are RunOne's to fill, and
// t.AbortAfter is the row's where it sets one), arms sc's scenario row,
// runs it out to deadline and grades it. What the crash row took down
// by recoverAt (>0) comes back then. The sequence is what the stdout
// goldens pin: Start, the row's arm and its watch on a watchEvery poll,
// RunUntil(recoverAt) → Recover, then World.RunOut. Anything that fails
// to build, an unknown scenario included, is the first error; a run
// that merely goes badly is an Outcome.
func RunOne(seed uint64, sh Shape, proto Protocol, t AC2T, sc Scenario, recoverAt, deadline sim.Time) (*Lab, error) {
	row := scenarioOf(sc)
	if row == nil {
		return nil, fmt.Errorf("engine: unknown scenario %q", sc)
	}
	for i, e := range sh.Edges {
		switch {
		case min(e.From, e.To) < 0 || max(e.From, e.To) >= len(sh.Parties):
			return nil, fmt.Errorf("engine: edge %d runs from party %d to %d, but the shape lists %d", i, e.From, e.To, len(sh.Parties))
		case e.From >= len(sh.Funds) || !slices.Contains(sh.Funds[e.From], e.Chain):
			return nil, fmt.Errorf("engine: edge %d: %s has no funds on %s", i, sh.Parties[e.From], e.Chain)
		}
	}
	w, ps, err := sh.Build(seed)
	if err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, len(sh.Edges))
	for i, e := range sh.Edges {
		edges[i] = graph.Edge{From: ps[e.From].Addr(), To: ps[e.To].Addr(), Asset: e.Asset, Chain: e.Chain}
	}
	g, err := graph.New(sh.Timestamp, edges...)
	if err != nil {
		return nil, err
	}
	t.Graph, t.Participants = g, ps
	if row.abortAfter > 0 {
		t.AbortAfter = row.abortAfter
	}
	r, err := NewRunner(w, proto, t)
	if err != nil {
		return nil, err
	}

	r.Start()
	f := fault{w: w, runner: r, parts: ps, g: g, deadline: deadline}
	if row.arm != nil {
		row.arm(&f)
	}
	if f.watch != nil {
		w.Sim.Poll(watchEvery, f.watch)
	}
	lab := &Lab{World: w, Graph: g, Runner: r}
	if recoverAt > 0 {
		w.RunUntil(recoverAt)
		if f.victim != "" {
			lab.RecoveredAt = w.Sim.Now()
			r.Recover()
		}
	}
	w.RunOut(deadline)
	lab.Outcome, lab.Crashed, lab.CrashedAt = r.Grade(), f.victim, f.crashedAt
	return lab, nil
}
