package chain

import (
	"bytes"
	"slices"
	"testing"
)

// TestBlockBuiltBeforeOwnVerdicts: through a tally that settles later,
// block building takes a transaction this process signed as valid before
// anyone has written or verified its signature, and the settle then
// computes every verdict it assumed. A transaction whose key pair's halves
// disagree is built into the block the same way, and the settle reports
// it — the strict builder rejects it.
func TestBlockBuiltBeforeOwnVerdicts(t *testing.T) {
	e := newEnv(t, "alice", "bob", "carol")
	sigs := e.chain.exec.SigTally()
	sigs.SettleLater()
	txs := []*Tx{e.transfer("alice", "bob", 100), e.transfer("carol", "bob", 50)}
	b, _, invalid := e.chain.BuildBlock(e.miner.Addr, e.chain.Params().BlockInterval, txs)
	if len(invalid) != 0 || !slices.Equal(b.Txs[1:], txs) {
		t.Fatalf("block holds %d txs, %d rejected; want both transfers", len(b.Txs)-1, len(invalid))
	}
	for _, tx := range txs {
		if !bytes.Equal(tx.Sig.Sig, make([]byte, len(tx.Sig.Sig))) {
			t.Fatal("a signature was written before the settle")
		}
	}
	if sigs.Assumed != 2 || sigs.Inline != 0 {
		t.Fatalf("tally %+v: want both verdicts assumed, none computed", *sigs)
	}
	if !sigs.Settle(nil) || sigs.Settled != 2 || sigs.Inline != 2 {
		t.Fatalf("settle: tally %+v, want both verdicts computed and valid", *sigs)
	}
	for i, tx := range txs {
		key := e.keys[[]string{"alice", "carol"}[i]]
		if !tx.Sig.Equal(key.Sign(tx.SigHash().Bytes())) {
			t.Fatalf("tx %d: not its key's signature after the settle", i)
		}
	}

	forged := func(e *testEnv) *Tx { // alice's private half, bob's public one
		bad := *e.keys["alice"]
		bad.Pub, bad.Addr = e.keys["bob"].Pub, e.keys["bob"].Addr
		op, o := e.utxoOf("bob", 100)
		return NewTransfer(&bad, 99, []TxIn{{Prev: op}}, []TxOut{{Value: o.Value, Owner: e.keys["carol"].Addr}})
	}
	tx := forged(e)
	if b, _, _ := e.chain.BuildBlock(e.miner.Addr, e.chain.Params().BlockInterval, []*Tx{tx}); len(b.Txs) != 2 {
		t.Fatal("an own transaction was not built in before its verdict")
	}
	if sigs.Settle(nil) {
		t.Fatal("a disagreeing key pair's signature settled valid")
	}
	strict := newEnv(t, "alice", "bob", "carol")
	if _, _, invalid := strict.chain.BuildBlock(strict.miner.Addr, strict.chain.Params().BlockInterval, []*Tx{forged(strict)}); len(invalid) != 1 {
		t.Fatal("the strict builder accepted a disagreeing key pair's signature")
	}
}
