// Exchange desk: a matching desk settles a stream of independent
// cross-chain swaps concurrently, spreading coordination across
// several witness networks (Section 5.2: "different permissionless
// networks can be used to coordinate different AC2Ts", so the witness
// layer is never the bottleneck).
//
//	go run ./examples/exchangedesk
package main

import (
	"fmt"
	"log"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
)

const (
	swaps     = 10
	witnesses = 3
)

func main() {
	// Two busy asset chains, three independent witness networks, and
	// the order book: maker i sells on dex-a, taker i on dex-b.
	sh := engine.Shape{Chains: []chain.ID{"dex-a", "dex-b"}}
	for i := range witnesses {
		sh.Chains = append(sh.Chains, chain.ID(fmt.Sprintf("witness-%d", i)))
	}
	for i := range swaps {
		sh.Parties = append(sh.Parties, fmt.Sprintf("maker-%d", i), fmt.Sprintf("taker-%d", i))
		sh.Funds = append(sh.Funds, []chain.ID{"dex-a"}, []chain.ID{"dex-b"})
	}
	world, ps, err := sh.Build(99)
	if err != nil {
		log.Fatal(err)
	}
	witnessOf := func(i int) chain.ID { return sh.Chains[2+i%witnesses] }

	// Launch every swap; witness networks assigned round-robin.
	runs := make([]core.Runner, swaps)
	for i := range runs {
		maker, taker, amount := ps[2*i], ps[2*i+1], uint64(10_000+1_000*i)
		g, err := graph.TwoParty(int64(i), maker.Addr(), taker.Addr(), amount, "dex-a", amount*3, "dex-b")
		if err != nil {
			log.Fatal(err)
		}
		runs[i], err = engine.NewRunner(world, engine.ProtoAC3WN, engine.AC2T{
			Graph: g, Participants: ps[2*i : 2*i+2], Witness: witnessOf(i), Depth: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		runs[i].Start()
	}

	world.RunOut(2 * sim.Hour)

	committed := 0
	var last sim.Time
	for i, r := range runs {
		out, status := r.Grade(), "NOT COMMITTED"
		if out.Committed() { // then End is when its last contract redeemed
			status = "committed"
			committed++
			last = max(last, out.End)
		}
		fmt.Printf("swap %2d via %-9s: %s in %.1f min (%d ops)\n",
			i, witnessOf(i), status,
			float64(out.Latency())/60000, out.Deploys+out.Calls)
	}
	fmt.Printf("\n%d/%d swaps committed; whole book settled in %.1f virtual minutes\n",
		committed, swaps, float64(last)/60000)
	fmt.Println("coordination is embarrassingly parallel: each AC2T has its own SCw, and")
	fmt.Println("the three witness networks never exchange a single message.")
}
