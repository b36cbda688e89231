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
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/xchain"
)

func main() {
	fmt.Println("=== HTLC baseline: Bob crashes after the secret is revealed ===")
	// Bob goes down the instant alice submits her redeem (revealing s);
	// his timelock expires, alice refunds, and he comes back too late.
	htlc := run(11, engine.ProtoHTLC, "alice's reveal is in flight",
		"bob recovers; the reconciler resumes and retries his redeem...")
	fmt.Println()
	fmt.Println("=== AC3WN: same crash, same downtime, then recovery ===")
	ac3wn := run(12, engine.ProtoAC3WN, "commit decision in flight",
		"bob recovers; the reconciler resumes from chain state", "witness")
	fmt.Printf("  committed = %v\n", ac3wn.Committed())

	fmt.Println()
	fmt.Println("=== verdict ===")
	fmt.Printf("HTLC : atomicity violated = %v (Bob lost his assets while down)\n", htlc.AtomicityViolated())
	fmt.Printf("AC3WN: atomicity violated = %v (Bob redeemed after recovering)\n", ac3wn.AtomicityViolated())
}

// run swaps alice's 40,000 on bitcoin for bob's 90,000 on ethereum
// under proto, takes down the run's critical failure point — bob, the
// last participant — the moment the commit is being pushed, brings him
// back two hours later, and grades the run half an hour after that.
func run(seed uint64, proto engine.Protocol, crashing, recovering string, witness ...chain.ID) *xchain.Outcome {
	at := func(t sim.Time) float64 { return float64(t) / 1000 }
	lab, err := engine.RunOne(seed,
		engine.Pair(int64(seed), 40_000, "bitcoin", 90_000, "ethereum", witness...),
		proto, engine.AC2T{Witness: "witness", Depth: 3},
		engine.ScenarioCrash, 2*sim.Hour, 2*sim.Hour+30*sim.Minute)
	if err != nil {
		log.Fatal(err)
	}
	if lab.Crashed != "" {
		fmt.Printf("t=%6.1fs  %s crashes (%s)\n", at(lab.CrashedAt), lab.Crashed, crashing)
	}
	if lab.RecoveredAt > 0 {
		fmt.Printf("t=%6.1fs  %s\n", at(lab.RecoveredAt), recovering)
	}
	for i, e := range lab.Outcome.Edges {
		fmt.Printf("  edge %d on %s: %s\n", i, e.Edge.Chain, e.State)
	}
	return lab.Outcome
}
