package spv

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/sim"
)

// TestEvidenceAcrossPrunedStates pins the executor GC's SPV guarantee:
// evidence assembly and verification need headers and the tx index,
// never per-block states — so a chain whose executor prunes states
// below its GC horizon still serves SPV anchors buried far deeper than
// that horizon (the StableDepth-class anchor distance of AC3WN, 30, vs
// a prune horizon of 8).
func TestEvidenceAcrossPrunedStates(t *testing.T) {
	rng := sim.NewRNG(43)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	params := chain.DefaultParams("pruned-validated")
	params.DifficultyBits = 8
	params.PruneDepth = 8
	exec, err := chain.NewExecutor(params, nil, chain.GenesisAlloc{key.Addr: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	view := exec.NewView()
	var now sim.Time
	mine := func(txs ...*chain.Tx) *chain.Block {
		now += 10 * sim.Second
		b, _, _ := view.BuildBlock(key.Addr, now, txs)
		b.Header.Seal(rng.Uint64())
		if _, err := view.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Anchor at height 5, the transaction of interest right above it,
	// then 35 more blocks: the anchor ends up ~36 deep — far below the
	// prune horizon (tip − 8), so its state is long gone.
	for i := 0; i < 5; i++ {
		mine()
	}
	anchor := view.Tip()
	var prev chain.OutPoint
	for op, out := range view.TipState().UTXOsOwnedBy(key.Addr) {
		if out.Value == 1_000 { // the genesis grant, not a coinbase
			prev = op
		}
	}
	tx := chain.NewTransfer(key, 1, []chain.TxIn{{Prev: prev}},
		[]chain.TxOut{{Value: 1_000, Owner: key.Addr}})
	mine(tx)
	for i := 0; i < 35; i++ {
		mine()
	}

	// Evidence builds from the buried anchor and verifies against its
	// header alone — exactly what a validator contract stores.
	ev, err := Build(view, anchor.Hash(), tx.ID(), params.ConfirmDepth)
	if err != nil {
		t.Fatalf("Build across pruned states: %v", err)
	}
	got, err := ev.Verify(anchor.Header, params.ConfirmDepth)
	if err != nil {
		t.Fatalf("Verify across pruned states: %v", err)
	}
	if got.ID() != tx.ID() {
		t.Fatalf("evidence proves tx %s, want %s", got.ID(), tx.ID())
	}
}
