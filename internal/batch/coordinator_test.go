package batch

import (
	"bytes"
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/miner"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// newCoordinator builds a world with one witness chain and a
// coordinator whose batch contract is already in chain state.
func newCoordinator(t *testing.T, seed uint64) (*xchain.World, *Coordinator) {
	t.Helper()
	b := xchain.NewBuilder(seed)
	b.Chain(xchain.DefaultChainSpec("witness"))
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(w, "witness", seed+1, Config{Window: 30 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	w.RunFor(3 * sim.Minute)
	if _, ok := c.client.ContractNow(c.Addr(), 0); !ok {
		t.Fatal("batch contract did not deploy")
	}
	return w, c
}

// commitBatches returns the canonical commit_batch transactions,
// oldest first.
func commitBatches(w *xchain.World, contract crypto.Address) []*chain.Tx {
	view := w.View("witness")
	var out []*chain.Tx
	for h := uint64(1); h <= view.Height(); h++ {
		b, _ := view.CanonicalAt(h)
		for _, tx := range b.Txs {
			if tx.Kind == chain.TxCall && tx.Contract == contract && tx.Fn == contracts.FnCommitBatch {
				out = append(out, tx)
			}
		}
	}
	return out
}

// TestPublishedBatchAccounting: BytesPublished is the encoded size of
// the commit_batch transaction, whose argument round-trips to the
// submitted decision set in canonical order under a root the quorum
// attested — and republishing that transaction after a reorg counts
// no batch, decision or byte a second time.
func TestPublishedBatchAccounting(t *testing.T) {
	w, c := newCoordinator(t, 901)
	lo, hi := crypto.Address{1}, crypto.Address{2}
	c.Submit(hi, contracts.WitnessRefundAuthorized)
	c.Submit(lo, contracts.WitnessRedeemAuthorized)
	c.Submit(hi, contracts.WitnessRedeemAuthorized) // conflicting: first wins
	if c.Pending() != 2 {
		t.Fatalf("%d pending decisions, want 2", c.Pending())
	}
	c.flush()
	if c.BatchesPublished != 1 || c.BatchDecisions != 2 || len(c.tracked) != 1 {
		t.Fatalf("after flush: %d batches, %d decisions, %d tracked", c.BatchesPublished, c.BatchDecisions, len(c.tracked))
	}
	published := c.BytesPublished

	// The commitment is in the mempool, not yet mined. Pretend it had
	// been seen on the canonical chain: to check() it now looks
	// reorged out, which is the republish path.
	for _, tb := range c.tracked {
		tb.seen = true
	}
	c.check(miner.TipSummary{})
	if c.Republishes != 1 {
		t.Fatalf("%d republishes, want 1", c.Republishes)
	}
	if c.BatchesPublished != 1 || c.BatchDecisions != 2 || c.BytesPublished != published {
		t.Fatalf("republish double-counted: %d batches, %d decisions, %d bytes (was %d)",
			c.BatchesPublished, c.BatchDecisions, c.BytesPublished, published)
	}

	w.RunFor(5 * sim.Minute)
	txs := commitBatches(w, c.Addr())
	if len(txs) != 1 {
		t.Fatalf("%d commit_batch transactions on chain, want 1", len(txs))
	}
	tx := txs[0]
	if published != len(tx.Encode()) || published != tx.EncodedLen() {
		t.Fatalf("BytesPublished = %d, transaction encodes to %d (EncodedLen %d)", published, len(tx.Encode()), tx.EncodedLen())
	}

	bc, err := contracts.DecodeBatchCommit(tx.Args)
	if err != nil {
		t.Fatal(err)
	}
	want := []contracts.DecisionRecord{{SCw: lo, Decision: contracts.WitnessRedeemAuthorized}, {SCw: hi, Decision: contracts.WitnessRefundAuthorized}}
	if len(bc.Records) != 2 || bc.Records[0] != want[0] || bc.Records[1] != want[1] {
		t.Fatalf("records = %+v, want %+v", bc.Records, want)
	}
	if bc.Root != contracts.BatchRoot(want) || bc.Attestation.Digest != bc.Root {
		t.Fatal("root is not the merkle root of the records, or not what the quorum attested")
	}
	if !bc.Attestation.CompleteThreshold(c.addrs, c.cfg.Threshold) {
		t.Fatal("attestation does not meet the quorum threshold")
	}
	if !bytes.Equal(contracts.EncodeBatchCommit(bc), tx.Args) {
		t.Fatal("decode then encode changed the commit_batch argument")
	}

	ct, ok := w.View("witness").TipState().Contract(c.Addr())
	if !ok {
		t.Fatal("batch contract missing from tip state")
	}
	ledger := ct.(*contracts.BatchWitnessSC).Decisions
	if len(ledger) != 2 || ledger[lo] != contracts.WitnessRedeemAuthorized || ledger[hi] != contracts.WitnessRefundAuthorized {
		t.Fatalf("decision ledger = %v", ledger)
	}
	if d, ok := c.Decided(hi); !ok || d != contracts.WitnessRefundAuthorized {
		t.Fatalf("Decided(hi) = %v, %v", d, ok)
	}
}
