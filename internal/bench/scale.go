package bench

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// scale reproduces Section 5.2's scalability argument empirically:
// atomicity coordination is embarrassingly parallel across AC2Ts, so
// adding witness networks raises aggregate AC2T throughput until the
// asset chains themselves saturate. We make each witness chain a
// deliberate bottleneck (1 transaction per block) and run a batch of
// independent AC2Ts round-robined across W ∈ {1, 2, 4} witness
// networks.
func scale(seed uint64) (string, bool, error) {
	const swaps = 24
	t := metrics.NewTable("Section 5.2 — aggregate AC2T throughput vs number of witness networks",
		"witness networks", "AC2Ts", "committed", "makespan (min)", "throughput (AC2T/hour)")
	ok := true
	var mk1 sim.Time
	for _, wn := range []int{1, 2, 4} {
		makespan, committed, err := runScale(seed+uint64(wn)*97, swaps, wn)
		if err != nil {
			return "", false, err
		}
		if committed != swaps {
			ok = false
		}
		if wn == 1 {
			mk1 = makespan
		}
		throughput := float64(swaps) / (float64(makespan) / float64(sim.Hour))
		t.AddRow(wn, swaps, committed,
			fmt.Sprintf("%.1f", float64(makespan)/float64(sim.Minute)),
			fmt.Sprintf("%.1f", throughput))
		// Going 1→4 witness networks must be a real win with a
		// saturated witness chain.
		if wn == 4 && makespan > mk1*2/3 {
			ok = false
		}
	}
	t.Note("each witness chain is capacity-limited to 1 tx/block, making coordination the bottleneck")
	t.Note("different AC2Ts need no coordination with each other, so witness networks add up (until asset chains saturate)")
	return t.String(), ok, nil
}

// runScale runs `swaps` independent two-party AC2Ts across `wn`
// witness chains and returns the makespan until the last commit.
func runScale(seed uint64, swaps, wn int) (sim.Time, int, error) {
	sh := engine.Shape{Chains: []chain.ID{"asset-a", "asset-b"}, MaxBlockTxs: map[chain.ID]int{}}
	for i := range wn {
		id := chain.ID(fmt.Sprintf("witness-%d", i))
		sh.Chains = append(sh.Chains, id)
		sh.MaxBlockTxs[id] = 1 // the deliberate bottleneck
	}
	for i := range swaps {
		sh.Parties = append(sh.Parties, fmt.Sprintf("alice%d", i), fmt.Sprintf("bob%d", i))
		sh.Funds = append(sh.Funds, []chain.ID{"asset-a"}, []chain.ID{"asset-b"})
	}
	w, ps, err := sh.Build(seed)
	if err != nil {
		return 0, 0, err
	}

	runs := make([]core.Runner, swaps)
	for i := range runs {
		g, err := graph.TwoParty(int64(seed)+int64(i), ps[2*i].Addr(), ps[2*i+1].Addr(),
			10_000, "asset-a", 10_000, "asset-b")
		if err != nil {
			return 0, 0, err
		}
		runs[i], err = engine.NewRunner(w, engine.ProtoAC3WN, engine.AC2T{
			Graph:        g,
			Participants: ps[2*i : 2*i+2],
			Witness:      sh.Chains[2+i%wn],
			Depth:        2,
		})
		if err != nil {
			return 0, 0, err
		}
		runs[i].Start()
	}
	w.RunOut(6 * sim.Hour)

	var makespan sim.Time
	committed := 0
	for _, r := range runs {
		// A committed AC3WN run's End is when its last contract redeemed.
		if out := r.Grade(); out.Committed() {
			committed++
			makespan = max(makespan, out.End)
		}
	}
	return makespan, committed, nil
}
