package chain

import (
	"testing"

	"repro/internal/crypto"
)

// TestBlockAndEvidenceAllocations pins the heap objects behind a block
// and its SPV evidence: the transaction root of a block of up to 16
// and a decoded header that is only hashed stay on the stack, the
// headers of evidence are one exact slice, and a block built on an
// empty mempool is four objects — the block's state layer and the one
// output it adds, the coinbase with the block's first transaction
// slots, and the block with its header.
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
	var sink crypto.Hash
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"TxRoot of 16 transactions", 0, func() { sink = TxRoot(txs) }},
		{"DecodeHeader(...).Hash()", 0, func() { h, _ := DecodeHeader(enc); sink = h.Hash() }},
		{"HeadersFrom over 5 blocks", 1, func() { hs, _ := e.chain.HeadersFrom(g.Hash()); sink = hs[4].TxRoot }},
		{"BuildBlock on an empty mempool", 4, func() { b, _, _ := e.chain.BuildBlock(e.miner.Addr, e.now, nil); sink = b.Header.TxRoot }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != c.want {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, n, c.want)
		}
	}
	_ = sink
}
