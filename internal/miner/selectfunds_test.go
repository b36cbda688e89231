package miner

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// TestSelectFundsCanonicalOrder is the regression test for map-order
// funding selection: SelectFunds used to pick inputs while ranging
// over the wallet's UTXO map, so the moment a wallet held more than
// one spendable output the chosen inputs — and with them the
// transaction's bytes, its id, and any contract address derived from
// it — depended on the runtime's per-process map seed. Selection must
// walk candidates in canonical OutPoint order.
//
// The multi-UTXO wallet is the sole miner's own: after a few virtual
// minutes of solo mining it holds one coinbase output per block.
func TestSelectFundsCanonicalOrder(t *testing.T) {
	pick := func() []chain.TxIn {
		s, net, _ := testNet(t, 91, 1, p2p.LatencyModel{Base: 1})
		net.Start()
		s.RunUntil(5 * sim.Minute)
		c := NewClient(net, 0, net.Node(0).Key)
		// BlockReward is 50, so this spans several coinbase outputs.
		ins, _, err := c.SelectFunds(120)
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}

	ins := pick()
	if len(ins) < 3 {
		t.Fatalf("selected %d inputs, expected at least 3 coinbase outputs", len(ins))
	}
	for i := 1; i < len(ins); i++ {
		if ins[i-1].Prev.Compare(ins[i].Prev) >= 0 {
			t.Fatalf("inputs out of canonical order at %d: %v then %v", i, ins[i-1].Prev, ins[i].Prev)
		}
	}

	// An identically-seeded run builds an identical chain but distinct
	// map instances with their own iteration order; the selection must
	// come out the same anyway.
	again := pick()
	if len(again) != len(ins) {
		t.Fatalf("re-run selected %d inputs, first run %d", len(again), len(ins))
	}
	for i := range ins {
		if ins[i].Prev != again[i].Prev {
			t.Fatalf("re-run input %d = %v, first run %v", i, again[i].Prev, ins[i].Prev)
		}
	}
}

// TestSelectFundsAllocatesItsInputs: a wallet read appends into a
// buffer on SelectFunds' stack and the reservations are a slice the
// client keeps, so selecting two of a three-output wallet's outputs
// allocates the returned inputs and nothing else — one exact slice.
func TestSelectFundsAllocatesItsInputs(t *testing.T) {
	s, net, user := testNet(t, 17, 1, p2p.LatencyModel{Base: 1})
	net.Start()
	alice := NewClient(net, 0, user)
	ins, _, err := alice.SelectFunds(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	split := chain.NewTransfer(user, 1, ins, []chain.TxOut{
		{Value: 300_000, Owner: user.Addr}, {Value: 300_000, Owner: user.Addr}, {Value: 400_000, Owner: user.Addr}})
	alice.Submit(split)
	mined := false
	whenTxAtDepth(t, alice, split, 0, func() { mined = true })
	s.RunUntil(2 * sim.Minute)
	if !mined {
		t.Fatal("the split was never mined")
	}
	net.Node(0).StopMining()
	s.Run()
	if owned := alice.Chain().TipState().AppendOwned(nil, user.Addr); len(owned) != 3 {
		t.Fatalf("the wallet holds %d outputs, want 3", len(owned))
	}

	var got []chain.TxIn
	n := testing.AllocsPerRun(100, func() {
		alice.reserved = alice.reserved[:0]
		got, _, err = alice.SelectFunds(500_000)
	})
	if err != nil || len(got) != 2 {
		t.Fatalf("SelectFunds(500000) = %d inputs, %v; want 2", len(got), err)
	}
	if n != 1 {
		t.Errorf("SelectFunds on a three-output wallet: %v allocations, want 1", n)
	}
}
