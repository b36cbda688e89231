package bench

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/metrics"
	"repro/internal/miner"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/vm"
)

// tpsTarget calibrates one simulated chain to a Table 1 row: with a
// 1-second block interval, capacity per block equals transactions per
// second.
type tpsTarget struct {
	Name     string
	PaperTPS int
}

// table1Targets are the top-4 permissionless cryptocurrencies by
// market cap with the paper's throughput figures (O'Keeffe [24]).
//
//ac3:globalstate read-only paper-figure table; written once here, never mutated
var table1Targets = []tpsTarget{
	{Name: "Bitcoin", PaperTPS: 7},
	{Name: "Ethereum", PaperTPS: 25},
	{Name: "Litecoin", PaperTPS: 56},
	{Name: "Bitcoin Cash", PaperTPS: 61},
}

// measureChainTPS floods a calibrated chain with chained transfers
// and measures sustained included transactions per virtual second.
func measureChainTPS(seed uint64, target tpsTarget, window sim.Time) (float64, error) {
	s := sim.New(seed)
	rng := s.RNG().Fork()
	user := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	params := chain.DefaultParams(chain.ID(target.Name))
	params.BlockInterval = 1 * sim.Second
	params.MaxBlockTxs = target.PaperTPS
	params.DifficultyBits = 4 // cheap sealing; PoW not under test here
	net, err := miner.NewNetwork(s, miner.Config{
		Params:  params,
		Miners:  1,
		Latency: p2p.LatencyModel{Base: 1},
		Alloc:   chain.GenesisAlloc{user.Addr: 10_000_000},
	})
	if err != nil {
		return 0, err
	}
	net.Start()

	// Offered load: a dependency chain of transfers, each spending
	// the previous one's output; the miner's multi-pass packing fills
	// every block to capacity.
	node := net.Node(0)
	view := node.Chain
	var prev chain.OutPoint
	var amount vm.Amount
	for _, o := range view.TipState().AppendOwned(nil, user.Addr) {
		prev, amount = o.Op, o.Out.Value
	}
	offered := int(float64(target.PaperTPS) * float64(window) / float64(sim.Second) * 1.5)
	for i := 0; i < offered; i++ {
		tx := chain.NewTransfer(user, uint64(i), []chain.TxIn{{Prev: prev}},
			[]chain.TxOut{{Value: amount, Owner: user.Addr}})
		node.SubmitLocal(tx)
		prev = chain.OutPoint{TxID: tx.ID(), Index: 0}
	}

	// Warm up one block, then measure over the window. Normalizing
	// by blocks-mined × target-interval removes the Poisson variance
	// of block arrivals from the estimate (the long-run rate is
	// blocks/interval regardless of a finite window's luck).
	s.RunUntil(2 * sim.Second)
	startHeight := view.Height()
	startTime := s.Now()
	s.RunUntil(startTime + window)
	included, blocks := 0, 0
	for h := startHeight + 1; h <= view.Height(); h++ {
		b, ok := view.CanonicalAt(h)
		if !ok {
			continue
		}
		blocks++
		included += len(b.Txs) - 1 // minus coinbase
	}
	if blocks == 0 {
		return 0, nil
	}
	effective := float64(blocks) * float64(params.BlockInterval) / float64(sim.Second)
	return float64(included) / effective, nil
}

// table1 reproduces Table 1 and the Section 6.4 throughput
// composition: chains calibrated to the paper's tps figures, raw
// throughput measured under saturation, and the AC2T throughput
// min(tps_i, …, tps_w) for an Ethereum+Litecoin AC2T under each
// witness choice.
func table1(seed uint64) (string, bool, error) {
	ok := true
	measured := make(map[string]float64, len(table1Targets))

	t1 := metrics.NewTable("Table 1 — throughput (tps) of the top-4 permissionless blockchains",
		"Blockchain", "paper tps", "measured tps (simulated, saturated)")
	for i, target := range table1Targets {
		tps, err := measureChainTPS(seed+uint64(i), target, 120*sim.Second)
		if err != nil {
			return "", false, err
		}
		measured[target.Name] = tps
		t1.AddRow(target.Name, target.PaperTPS, fmt.Sprintf("%.1f", tps))
		// Block arrivals are Poisson, so a finite window fluctuates;
		// ±20% on a 120s window is within two standard deviations.
		if tps < float64(target.PaperTPS)*0.8 || tps > float64(target.PaperTPS)*1.2 {
			ok = false
		}
	}
	t1.Note("each chain calibrated as capacity/interval; measured under a saturating transfer load")

	// Section 6.4: AC2T over {Ethereum, Litecoin} with each witness.
	t2 := metrics.NewTable("Section 6.4 — AC2T throughput = min(tps_i, ..., tps_w) for an ETH+LTC transaction",
		"Witness network", "min() composition", "AC2T tps")
	involved := []string{"Ethereum", "Litecoin"}
	for _, wn := range table1Targets {
		minTPS := measured[wn.Name]
		parts := fmt.Sprintf("min(%.0f, %.0f, %.0f)", measured["Ethereum"], measured["Litecoin"], measured[wn.Name])
		for _, in := range involved {
			if measured[in] < minTPS {
				minTPS = measured[in]
			}
		}
		t2.AddRow(wn.Name, parts, fmt.Sprintf("%.1f", minTPS))
	}
	t2.Note("paper's example: witnessing an ETH+LTC AC2T with Bitcoin caps throughput at 7 tps")
	t2.Note("choosing the witness among the involved chains (ETH or LTC here) avoids adding a bottleneck")

	// The paper's headline composition: Bitcoin witness ⇒ ≈7.
	btcBound := measured["Bitcoin"]
	if btcBound > measured["Ethereum"] || btcBound > measured["Litecoin"] {
		ok = false
	}
	return section(t1.String(), t2.String()), ok, nil
}
