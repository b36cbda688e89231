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
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

const (
	swaps     = 10
	witnesses = 3
)

func main() {
	b := xchain.NewBuilder(99)

	// Two busy asset chains and three independent witness networks.
	b.Chain(xchain.DefaultChainSpec("dex-a"))
	b.Chain(xchain.DefaultChainSpec("dex-b"))
	witnessIDs := make([]chain.ID, witnesses)
	for i := range witnessIDs {
		witnessIDs[i] = chain.ID(fmt.Sprintf("witness-%d", i))
		b.Chain(xchain.DefaultChainSpec(witnessIDs[i]))
	}

	type order struct {
		maker, taker *xchain.Participant
		amount       uint64
	}
	book := make([]order, swaps)
	for i := range book {
		book[i] = order{
			maker:  b.Participant(fmt.Sprintf("maker-%d", i)),
			taker:  b.Participant(fmt.Sprintf("taker-%d", i)),
			amount: uint64(10_000 + 1_000*i),
		}
		b.Fund(book[i].maker, "dex-a", 1_000_000)
		b.Fund(book[i].taker, "dex-b", 1_000_000)
	}
	world, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Launch every swap; witness networks assigned round-robin.
	runs := make([]*core.Run, swaps)
	for i, o := range book {
		g, err := graph.TwoParty(int64(i), o.maker.Addr(), o.taker.Addr(),
			o.amount, "dex-a", o.amount*3, "dex-b")
		if err != nil {
			log.Fatal(err)
		}
		r, err := core.New(world, core.Config{
			Graph:        g,
			Participants: []*xchain.Participant{o.maker, o.taker},
			Initiator:    o.maker,
			WitnessChain: witnessIDs[i%witnesses],
			WitnessDepth: 3,
			AssetDepth:   3,
		})
		if err != nil {
			log.Fatal(err)
		}
		runs[i] = r
		r.Start()
	}

	world.RunOut(2 * sim.Hour)

	committed := 0
	var last sim.Time
	for i, r := range runs {
		out := r.Grade()
		status := "committed"
		if !out.Committed() {
			status = "NOT COMMITTED"
		} else {
			committed++
			if r.CompletedAt > last {
				last = r.CompletedAt
			}
		}
		fmt.Printf("swap %2d via %-9s: %s in %.1f min (%d ops)\n",
			i, witnessIDs[i%witnesses], status,
			float64(out.Latency())/60000, out.Deploys+out.Calls)
	}
	fmt.Printf("\n%d/%d swaps committed; whole book settled in %.1f virtual minutes\n",
		committed, swaps, float64(last)/60000)
	fmt.Println("coordination is embarrassingly parallel: each AC2T has its own SCw, and")
	fmt.Println("the three witness networks never exchange a single message.")
}
