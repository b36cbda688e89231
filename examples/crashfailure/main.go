// Crash failure: the Section 1 motivating scenario, run twice.
//
// Bob crashes at the worst possible moment — after the swap is
// irreversibly underway but before he claims his side. Under the
// HTLC baseline (Nolan/Herlihy) his timelock expires while he is
// down: Alice walks away with both assets and Bob's loss is
// permanent, a violation of all-or-nothing atomicity. Under AC3WN
// there is no timelock: the witness network's RDauth decision waits
// for him, and his recovery completes the commit.
//
//	go run ./examples/crashfailure
package main

import (
	"fmt"
	"log"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/xchain"
)

func main() {
	fmt.Println("=== HTLC baseline: Bob crashes after the secret is revealed ===")
	htlcOutcome := runBaseline()
	fmt.Println()
	fmt.Println("=== AC3WN: same crash, same downtime, then recovery ===")
	ac3wnOutcome := runAC3WN()

	fmt.Println()
	fmt.Println("=== verdict ===")
	fmt.Printf("HTLC : atomicity violated = %v (Bob lost his assets while down)\n", htlcOutcome)
	fmt.Printf("AC3WN: atomicity violated = %v (Bob redeemed after recovering)\n", ac3wnOutcome)
}

func buildWorld(seed uint64, withWitness bool) (*xchain.World, *xchain.Participant, *xchain.Participant, *graph.Graph) {
	b := xchain.NewBuilder(seed)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	ids := []chain.ID{"bitcoin", "ethereum"}
	if withWitness {
		ids = append(ids, "witness")
	}
	for _, id := range ids {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	b.Fund(alice, "bitcoin", 1_000_000)
	b.Fund(bob, "ethereum", 1_000_000)
	w, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.TwoParty(int64(seed), alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	if err != nil {
		log.Fatal(err)
	}
	return w, alice, bob, g
}

// crashBobAtCommit takes down the run's critical failure point — bob,
// the last participant — the moment the commit is being pushed.
func crashBobAtCommit(w *xchain.World, r core.Runner, why string) {
	w.Sim.Poll(100*sim.Millisecond, core.CrashAtCommit(r, func(who string, _ bool) {
		fmt.Printf("t=%6.1fs  %s crashes (%s)\n", float64(w.Sim.Now())/1000, who, why)
	}))
}

func runBaseline() bool {
	w, alice, bob, g := buildWorld(11, false)
	r, err := swap.New(w, swap.Config{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Leader:       alice,
		Delta:        60 * sim.Second,
		ConfirmDepth: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	r.Start()
	// Crash bob the instant alice submits her redeem (revealing s).
	crashBobAtCommit(w, r, "alice's reveal is in flight")
	w.RunUntil(2 * sim.Hour) // bob's timelock expires; alice refunds
	fmt.Printf("t=%6.1fs  bob recovers; the reconciler resumes and retries his redeem...\n", float64(w.Sim.Now())/1000)
	r.Recover()
	w.RunOut(w.Sim.Now() + 30*sim.Minute)

	out := r.Grade()
	for i, e := range out.Edges {
		fmt.Printf("  edge %d on %s: %s\n", i, e.Edge.Chain, e.State)
	}
	return out.AtomicityViolated()
}

func runAC3WN() bool {
	w, alice, bob, g := buildWorld(12, true)
	r, err := core.New(w, core.Config{
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
	r.Start()
	crashBobAtCommit(w, r, "commit decision in flight")
	w.RunUntil(2 * sim.Hour) // same downtime as the baseline run
	fmt.Printf("t=%6.1fs  bob recovers; the reconciler resumes from chain state\n", float64(w.Sim.Now())/1000)
	r.Recover()
	w.RunOut(w.Sim.Now() + 30*sim.Minute)

	out := r.Grade()
	for i, e := range out.Edges {
		fmt.Printf("  edge %d on %s: %s\n", i, e.Edge.Chain, e.State)
	}
	fmt.Printf("  committed = %v\n", out.Committed())
	return out.AtomicityViolated()
}
