// Supply chain: the Section 5.3 / Figure 7 scenarios. Supply-chain
// settlements produce AC2T graphs that single-leader swap protocols
// structurally cannot execute:
//
//   - Figure 7a: overlapping payment cycles (every vertex lies on two
//     cycles, so no leader's removal makes the graph acyclic);
//   - Figure 7b: a disconnected batch — two unrelated settlements the
//     parties nevertheless want to commit as one atomic unit.
//
// AC3WN registers the whole graph in one witness contract and commits
// both atomically.
//
//	go run ./examples/supplychain
package main

import (
	"fmt"
	"log"

	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
)

func main() {
	run("Figure 7a: cyclic settlement among manufacturer, carrier, retailer", 71, engine.Shape{
		Parties: []string{"manufacturer", "carrier", "retailer"},
		Chains:  []chain.ID{"parts-ledger", "freight-ledger", "retail-ledger", "witness"},
		// Everyone both pays and is paid, on two ledgers each.
		Funds:     [][]chain.ID{{"parts-ledger", "freight-ledger"}, {"freight-ledger", "retail-ledger"}, {"retail-ledger", "parts-ledger"}},
		Timestamp: 1,
		Edges: []engine.Transfer{
			// forward cycle: parts → freight → retail → parts
			{From: 0, To: 1, Asset: 30_000, Chain: "parts-ledger"},
			{From: 1, To: 2, Asset: 20_000, Chain: "freight-ledger"},
			{From: 2, To: 0, Asset: 50_000, Chain: "retail-ledger"},
			// reverse rebate cycle, overlapping the first
			{From: 0, To: 2, Asset: 5_000, Chain: "freight-ledger"},
			{From: 2, To: 1, Asset: 4_000, Chain: "parts-ledger"},
			{From: 1, To: 0, Asset: 3_000, Chain: "retail-ledger"},
		},
	}, "cyclic", (*graph.Graph).IsCyclic)
	fmt.Println()
	run("Figure 7b: disconnected batch settlement", 72, engine.Shape{
		Parties:   []string{"farm", "mill", "mine", "smelter"},
		Chains:    []chain.ID{"grain-ledger", "flour-ledger", "ore-ledger", "metal-ledger", "witness"},
		Funds:     [][]chain.ID{{"grain-ledger"}, {"flour-ledger"}, {"ore-ledger"}, {"metal-ledger"}},
		Timestamp: 2,
		Edges: []engine.Transfer{
			// grain-for-flour swap
			{From: 0, To: 1, Asset: 25_000, Chain: "grain-ledger"},
			{From: 1, To: 0, Asset: 25_000, Chain: "flour-ledger"},
			// ore-for-metal swap
			{From: 2, To: 3, Asset: 25_000, Chain: "ore-ledger"},
			{From: 3, To: 2, Asset: 25_000, Chain: "metal-ledger"},
		},
	}, "connected", (*graph.Graph).IsWeaklyConnected)
}

// run settles sh under AC3WN, first printing its graph with the named
// property that puts it out of a single leader's reach.
func run(title string, seed uint64, sh engine.Shape, property string, holds func(*graph.Graph) bool) {
	fmt.Printf("=== %s ===\n", title)
	lab, err := engine.RunOne(seed, sh, engine.ProtoAC3WN, engine.AC2T{Witness: "witness", Depth: 3},
		engine.ScenarioCommit, 0, 2*sim.Hour)
	if err != nil {
		log.Fatal(err)
	}
	g := lab.Graph
	feasible, _ := g.HerlihyFeasible()
	fmt.Printf("graph: %s, %s=%v, single-leader feasible=%v\n", g, property, holds(g), feasible)

	out := lab.Outcome
	fmt.Printf("AC3WN outcome: committed=%v violated=%v (%d edges, %.1f virtual minutes)\n",
		out.Committed(), out.AtomicityViolated(), len(out.Edges), float64(out.Latency())/60000)
	for i, e := range out.Edges {
		fmt.Printf("  edge %d: %d on %s → %s\n", i, e.Edge.Asset, e.Edge.Chain, e.State)
	}
}
