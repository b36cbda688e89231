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
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

func main() {
	fmt.Println("=== Figure 7a: cyclic settlement among manufacturer, carrier, retailer ===")
	runCyclic()
	fmt.Println()
	fmt.Println("=== Figure 7b: disconnected batch settlement ===")
	runDisconnected()
}

func runCyclic() {
	b := xchain.NewBuilder(71)
	manufacturer := b.Participant("manufacturer")
	carrier := b.Participant("carrier")
	retailer := b.Participant("retailer")
	for _, id := range []chain.ID{"parts-ledger", "freight-ledger", "retail-ledger", "witness"} {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	// Everyone both pays and is paid, on two ledgers each.
	b.Fund(manufacturer, "parts-ledger", 1_000_000)
	b.Fund(manufacturer, "freight-ledger", 1_000_000)
	b.Fund(carrier, "freight-ledger", 1_000_000)
	b.Fund(carrier, "retail-ledger", 1_000_000)
	b.Fund(retailer, "retail-ledger", 1_000_000)
	b.Fund(retailer, "parts-ledger", 1_000_000)
	w, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	g, err := graph.New(1,
		// forward cycle: parts → freight → retail → parts
		graph.Edge{From: manufacturer.Addr(), To: carrier.Addr(), Asset: 30_000, Chain: "parts-ledger"},
		graph.Edge{From: carrier.Addr(), To: retailer.Addr(), Asset: 20_000, Chain: "freight-ledger"},
		graph.Edge{From: retailer.Addr(), To: manufacturer.Addr(), Asset: 50_000, Chain: "retail-ledger"},
		// reverse rebate cycle, overlapping the first
		graph.Edge{From: manufacturer.Addr(), To: retailer.Addr(), Asset: 5_000, Chain: "freight-ledger"},
		graph.Edge{From: retailer.Addr(), To: carrier.Addr(), Asset: 4_000, Chain: "parts-ledger"},
		graph.Edge{From: carrier.Addr(), To: manufacturer.Addr(), Asset: 3_000, Chain: "retail-ledger"},
	)
	if err != nil {
		log.Fatal(err)
	}
	feasible, _ := g.HerlihyFeasible()
	fmt.Printf("graph: %s, cyclic=%v, single-leader feasible=%v\n", g, g.IsCyclic(), feasible)

	run(w, g, []*xchain.Participant{manufacturer, carrier, retailer})
}

func runDisconnected() {
	b := xchain.NewBuilder(72)
	ps := []*xchain.Participant{
		b.Participant("farm"), b.Participant("mill"),
		b.Participant("mine"), b.Participant("smelter"),
	}
	ids := []chain.ID{"grain-ledger", "flour-ledger", "ore-ledger", "metal-ledger", "witness"}
	for _, id := range ids {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	for i, p := range ps {
		b.Fund(p, ids[i], 1_000_000)
	}
	w, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.Disconnected(2, [][2]crypto.Address{
		{ps[0].Addr(), ps[1].Addr()}, // grain-for-flour swap
		{ps[2].Addr(), ps[3].Addr()}, // ore-for-metal swap
	}, 25_000, []chain.ID{"grain-ledger", "flour-ledger", "ore-ledger", "metal-ledger"})
	if err != nil {
		log.Fatal(err)
	}
	feasible, _ := g.HerlihyFeasible()
	fmt.Printf("graph: %s, connected=%v, single-leader feasible=%v\n",
		g, g.IsWeaklyConnected(), feasible)

	run(w, g, ps)
}

func run(w *xchain.World, g *graph.Graph, ps []*xchain.Participant) {
	r, err := core.New(w, core.Config{
		Graph:        g,
		Participants: ps,
		Initiator:    ps[0],
		WitnessChain: "witness",
		WitnessDepth: 3,
		AssetDepth:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	r.Start()
	w.RunOut(2 * sim.Hour)

	out := r.Grade()
	fmt.Printf("AC3WN outcome: committed=%v violated=%v (%d edges, %.1f virtual minutes)\n",
		out.Committed(), out.AtomicityViolated(), len(out.Edges), float64(out.Latency())/60000)
	for i, e := range out.Edges {
		fmt.Printf("  edge %d: %d on %s → %s\n", i, e.Edge.Asset, e.Edge.Chain, e.State)
	}
}
