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
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

func main() {
	// 1. Build three simulated permissionless blockchains: two asset
	//    chains plus the witness network. Each has its own miners,
	//    gossip network, forks, and fork resolution.
	b := xchain.NewBuilder(2026)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	for _, id := range []chain.ID{"bitcoin", "ethereum", "witness"} {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	b.Fund(alice, "bitcoin", 1_000_000) // Alice's X bitcoins
	b.Fund(bob, "ethereum", 1_000_000)  // Bob's Y ethers
	world, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Agree on the AC2T graph D: X bitcoins Alice→Bob, Y ethers
	//    Bob→Alice (both will multisign (D, t) inside the protocol).
	const x, y = 250_000, 600_000
	g, err := graph.TwoParty(1, alice.Addr(), bob.Addr(), x, "bitcoin", y, "ethereum")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AC2T %s: %d sat Alice→Bob, %d wei Bob→Alice\n", g, uint64(x), uint64(y))

	// 3. Run AC3WN: SCw on the witness chain, parallel deployment,
	//    evidence-checked commit, parallel redemption.
	run, err := core.New(world, core.Config{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		WitnessChain: "witness",
		WitnessDepth: 3,
		AssetDepth:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	run.Start()
	world.RunOut(1 * sim.Hour)

	// 4. Inspect the outcome from ground truth.
	out := run.Grade()
	fmt.Printf("\ncommitted=%v  violated=%v  latency=%.1f virtual minutes\n",
		out.Committed(), out.AtomicityViolated(), float64(out.Latency())/60000)
	fmt.Printf("operations paid: %d contract deployments + %d calls (N+1 each, Section 6.2)\n",
		out.Deploys, out.Calls)
	fmt.Printf("bob now owns %d on bitcoin; alice owns %d on ethereum\n",
		owned(world, "bitcoin", bob.Addr()), owned(world, "ethereum", alice.Addr()))

	fmt.Println("\nprotocol timeline:")
	for _, ev := range run.Events() {
		if ev.Edge < 0 {
			fmt.Printf("  t=%6.1fs  %s\n", float64(ev.At)/1000, ev.Label)
		}
	}
}

func owned(w *xchain.World, id chain.ID, a crypto.Address) uint64 {
	var total uint64
	for _, o := range w.View(id).TipState().UTXOsOwnedBy(a) {
		total += o.Value
	}
	return total
}
