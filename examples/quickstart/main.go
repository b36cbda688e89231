// Quickstart: the paper's running example (Figure 4). Alice owns X
// "bitcoins" and wants Y "ethers"; Bob the reverse. They execute the
// swap with AC3WN: a witness blockchain coordinates, both asset
// contracts deploy in parallel, and the commit decision on the
// witness chain unlocks both redemptions.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/xchain"
)

func main() {
	// Three simulated permissionless blockchains — two asset chains and
	// the witness network, each with its own miners, gossip network,
	// forks and fork resolution — and the AC2T graph D over them: X
	// bitcoins Alice→Bob, Y ethers Bob→Alice. AC3WN runs it: SCw on the
	// witness chain, parallel deployment, evidence-checked commit,
	// parallel redemption.
	const x, y = 250_000, 600_000
	lab, err := engine.RunOne(2026, engine.Pair(1, x, "bitcoin", y, "ethereum", "witness"),
		engine.ProtoAC3WN, engine.AC2T{Witness: "witness", Depth: 3},
		engine.ScenarioCommit, 0, 1*sim.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AC2T %s: %d sat Alice→Bob, %d wei Bob→Alice\n", lab.Graph, uint64(x), uint64(y))

	// Inspect the outcome from ground truth.
	out, edges := lab.Outcome, lab.Graph.Edges
	fmt.Printf("\ncommitted=%v  violated=%v  latency=%.1f virtual minutes\n",
		out.Committed(), out.AtomicityViolated(), float64(out.Latency())/60000)
	fmt.Printf("operations paid: %d contract deployments + %d calls (N+1 each, Section 6.2)\n",
		out.Deploys, out.Calls)
	fmt.Printf("bob now owns %d on bitcoin; alice owns %d on ethereum\n",
		owned(lab.World, "bitcoin", edges[0].To), owned(lab.World, "ethereum", edges[1].To))

	fmt.Println("\nprotocol timeline:")
	for _, ev := range lab.Runner.Events() {
		if ev.Edge < 0 {
			fmt.Printf("  t=%6.1fs  %s\n", float64(ev.At)/1000, ev.Label)
		}
	}
}

func owned(w *xchain.World, id chain.ID, a crypto.Address) uint64 {
	var total uint64
	for _, o := range w.View(id).TipState().AppendOwned(nil, a) {
		total += o.Out.Value
	}
	return total
}
