package chain

import (
	"maps"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
)

// TestBlockAndEvidenceAllocations pins the heap objects behind a block
// and its SPV evidence: the transaction root of a block of up to 16
// and a decoded header that is only hashed stay on the stack, the
// headers of evidence are one exact slice, a block built on an empty
// mempool is two objects — the block's state layer, and the block with
// its header, coinbase, first transaction and contract slots — its
// layer's outputs carved from a slab; a block carrying a deploy and a
// call adds the deployed contract and the call's clone, its spends,
// payout and balance carved too; a call applied in the executor's
// scratch context to a layer with room is the clone alone; and an
// executor admitting 64 mined blocks carves their records from one
// slab, beside the two slabs its height and transaction indexes carve
// 128 slots from.
func TestBlockAndEvidenceAllocations(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	g := e.chain.exec.genesis
	var txs []*Tx
	for len(txs) < 16 {
		txs = append(txs, e.transfer("alice", "bob", 1))
	}
	for range 5 {
		e.mine()
	}
	enc := e.chain.tip.Header.Encode()

	// A vault's deploy and a call that opens it, never mined: every
	// BuildBlock below packs them anew on the same tip.
	op, o := e.utxoOf("alice", 1_000)
	deploy := NewDeploy(e.keys["alice"], 101, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 1_000, Owner: e.keys["alice"].Addr}},
		"vault", vaultParams{Recipient: e.keys["bob"].Addr, Key: 7}.Encode(), 1_000)
	open := NewCall(e.keys["bob"], 102, deploy.ContractAddr(), "open", []byte{7}, nil, nil, 0)
	_, withVault, _ := e.chain.BuildBlock(e.miner.Addr, e.now, []*Tx{deploy})
	layer := withVault.Child()
	room := blockDelta{added: make([]utxoEntry, 0, 4), contracts: make([]contractEntry, 0, 4), balances: make([]balanceEntry, 0, 4)}
	var sigs crypto.SigTally

	// Sixty-four mined blocks and their built states, admitted below into
	// executors of the same genesis whose maps already have room for them.
	src, err := NewExecutor(pruneParams(0, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := src.NewView()
	var mined []*Block
	var built []*State
	for i := range 64 {
		b, st, _ := v.BuildBlock(e.miner.Addr, sim.Time(i+1)*10, nil)
		b.Header.Seal(0)
		if _, err := v.AddMinedBlock(b, st); err != nil {
			t.Fatal(err)
		}
		mined, built = append(mined, b), append(built, st)
	}
	const runs = 100
	var fresh []*Executor
	for range runs + 1 { // AllocsPerRun's warm-up run, then runs
		x, err := NewExecutor(pruneParams(0, 0), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		x.blocks, x.byHeight, x.txIndex = roomy(x.blocks), roomy(x.byHeight), roomy(x.txIndex)
		fresh = append(fresh, x)
	}

	var sink crypto.Hash
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"TxRoot of 16 transactions", 0, func() { sink = TxRoot(txs) }},
		{"DecodeHeader(...).Hash()", 0, func() { h, _ := DecodeHeader(enc); sink = h.Hash() }},
		{"HeadersFrom over 5 blocks", 1, func() { hs, _ := e.chain.HeadersFrom(g.Hash()); sink = hs[4].TxRoot }},
		{"BuildBlock on an empty mempool", 2, func() { b, _, _ := e.chain.BuildBlock(e.miner.Addr, e.now, nil); sink = b.Header.TxRoot }},
		{"BuildBlock carrying a deploy and a call", 4, func() {
			b, _, invalid := e.chain.BuildBlock(e.miner.Addr, e.now, []*Tx{deploy, open})
			if len(b.Txs) != 3 || len(invalid) != 0 {
				t.Fatalf("built %d transactions, %d invalid; want the coinbase, the deploy and the call", len(b.Txs), len(invalid))
			}
		}},
		{"applying a call in the executor's scratch", 1, func() {
			layer.own = room
			if err := applyTx(layer, e.chain.exec.reg, "testnet", 9, int64(e.now), open, &sigs, &e.chain.exec.ctx); err != nil {
				t.Fatal(err)
			}
		}},
		{"admitting 64 mined blocks", 3, func() {
			x := fresh[0]
			fresh = fresh[1:]
			for i, b := range mined {
				if err := x.CommitBuilt(b, built[i]); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		if n := testing.AllocsPerRun(runs, c.fn); n != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, n, c.want)
		}
	}
	_ = sink
}

// roomy returns a copy of m with room for 128 more entries.
func roomy[K comparable, V any](m map[K]V) map[K]V {
	r := make(map[K]V, len(m)+128)
	maps.Copy(r, m)
	return r
}
