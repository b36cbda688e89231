package spv

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// fixture builds a single-view chain with a funded key and n mined
// blocks, the transfer of interest mined in block 1.
type fixture struct {
	view *chain.Chain
	key  *crypto.KeyPair
	tx   *chain.Tx
	rng  *sim.RNG
	now  sim.Time
}

// fixtureTB is the slice of testing.TB the fixture needs, letting
// tests and benchmarks share it.
type fixtureTB interface {
	Helper()
	Fatal(args ...any)
	Fatalf(format string, args ...any)
}

func newFixture(t *testing.T, blocksAfterTx int) *fixture {
	return newFixtureAny(t, blocksAfterTx)
}

func newFixtureAny(t fixtureTB, blocksAfterTx int) *fixture {
	t.Helper()
	rng := sim.NewRNG(42)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	params := chain.DefaultParams("validated")
	params.DifficultyBits = 8
	exec, err := chain.NewExecutor(params, nil, chain.GenesisAlloc{key.Addr: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	view := exec.NewView()
	f := &fixture{view: view, key: key, rng: rng}

	// The transaction of interest.
	var prev chain.OutPoint
	for op := range view.TipState().UTXOsOwnedBy(key.Addr) {
		prev = op
	}
	f.tx = chain.NewTransfer(key, 1, []chain.TxIn{{Prev: prev}},
		[]chain.TxOut{{Value: 1_000, Owner: key.Addr}})
	f.mine(f.tx)
	for i := 0; i < blocksAfterTx; i++ {
		f.mine()
	}
	return f
}

func (f *fixture) mine(txs ...*chain.Tx) *chain.Block {
	f.now += 10 * sim.Second
	b, _, _ := f.view.BuildBlock(f.key.Addr, f.now, txs)
	b.Header.Seal(f.rng.Uint64())
	if _, err := f.view.AddBlock(b); err != nil {
		panic(err)
	}
	return b
}

func TestBuildAndVerifyEvidence(t *testing.T) {
	f := newFixture(t, 6)
	cp := genesis(f.view)
	ev, err := Build(f.view, cp.Hash(), f.tx.ID(), 6)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := ev.Verify(cp.Header, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() != f.tx.ID() {
		t.Fatal("verified a different transaction")
	}
}

func TestEvidenceEncodeDecodeRoundTrip(t *testing.T) {
	f := newFixture(t, 6)
	cp := genesis(f.view)
	ev, err := Build(f.view, cp.Hash(), f.tx.ID(), 6)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(ev.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Verify(cp.Header, 6); err != nil {
		t.Fatalf("decoded evidence fails verification: %v", err)
	}
}

func TestEvidenceInsufficientDepth(t *testing.T) {
	f := newFixture(t, 3)
	cp := genesis(f.view)
	if _, err := Build(f.view, cp.Hash(), f.tx.ID(), 6); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("Build at depth 3 with min 6 succeeded: %v", err)
	}
	// Build at 3, verify demanding 6: must fail at the verifier too.
	ev, err := Build(f.view, cp.Hash(), f.tx.ID(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Verify(cp.Header, 6); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("shallow evidence verified: %v", err)
	}
}

func TestEvidenceBrokenLinkRejected(t *testing.T) {
	f := newFixture(t, 6)
	cp := genesis(f.view)
	ev, _ := Build(f.view, cp.Hash(), f.tx.ID(), 6)
	// Remove a middle header: the chain no longer links.
	ev.Headers = append(ev.Headers[:2], ev.Headers[3:]...)
	if _, err := ev.Verify(cp.Header, 5); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("broken header chain verified: %v", err)
	}
}

func TestEvidenceForgedPoWRejected(t *testing.T) {
	f := newFixture(t, 6)
	cp := genesis(f.view)
	ev, _ := Build(f.view, cp.Hash(), f.tx.ID(), 6)
	// Forge the last header: re-link it correctly but skip sealing.
	forged := *ev.Headers[len(ev.Headers)-1]
	forged.Nonce = 0
	for forged.CheckPoW() {
		forged.Nonce++
	}
	ev.Headers[len(ev.Headers)-1] = &forged
	if _, err := ev.Verify(cp.Header, 6); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("unsealed header accepted: %v", err)
	}
}

// TestEvidenceBadPoWMidChainRejectedAtItsIndex: Verify hashes every
// header once and reuses the digest as the next link, so a header that
// fails its target in the middle must still stop verification there,
// before the link check of its successor could mask it.
func TestEvidenceBadPoWMidChainRejectedAtItsIndex(t *testing.T) {
	f := newFixture(t, 6)
	cp := genesis(f.view)
	ev, _ := Build(f.view, cp.Hash(), f.tx.ID(), 6)
	const mid = 3
	forged := *ev.Headers[mid]
	for forged.CheckPoW() {
		forged.Nonce++
	}
	ev.Headers[mid] = &forged
	_, err := ev.Verify(cp.Header, 6)
	if !errors.Is(err, ErrBadEvidence) || !strings.Contains(err.Error(), "header 3 fails proof of work") {
		t.Fatalf("mid-chain unsealed header: %v", err)
	}
}

func TestEvidenceWrongTxRejected(t *testing.T) {
	f := newFixture(t, 6)
	cp := genesis(f.view)
	ev, _ := Build(f.view, cp.Hash(), f.tx.ID(), 6)
	// Swap in a different transaction's bytes.
	other := chain.NewTransfer(f.key, 99, ev.decodeTxForTest(t).Ins, ev.decodeTxForTest(t).Outs)
	ev.TxBytes = other.Encode()
	if _, err := ev.Verify(cp.Header, 6); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("swapped tx verified: %v", err)
	}
}

// decodeTxForTest decodes the evidence transaction, failing the test
// on error.
func (e *Evidence) decodeTxForTest(t *testing.T) *chain.Tx {
	t.Helper()
	tx, err := chain.DecodeTx(e.TxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// genesis returns c's genesis block: its canonical block at height 0.
func genesis(c *chain.Chain) *chain.Block {
	b, _ := c.CanonicalAt(0)
	return b
}

func TestEvidenceWrongChainRejected(t *testing.T) {
	f := newFixture(t, 6)
	otherParams := chain.DefaultParams("other")
	otherParams.DifficultyBits = 8
	other, _ := chain.NewExecutor(otherParams, nil, nil)
	ev, _ := Build(f.view, genesis(f.view).Hash(), f.tx.ID(), 6)
	if _, err := ev.Verify(genesis(other.NewView()).Header, 6); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("evidence verified against wrong chain checkpoint: %v", err)
	}
}

func TestEvidenceFromMidChainCheckpoint(t *testing.T) {
	f := newFixture(t, 0)
	// Mine 3 more blocks, put a second tx in, confirm, checkpoint at
	// block 2.
	f.mine()
	cpBlock, _ := f.view.CanonicalAt(2)
	var prev chain.OutPoint
	for op, o := range f.view.TipState().UTXOsOwnedBy(f.key.Addr) {
		if o.Value == 1_000 {
			prev = op
		}
	}
	tx2 := chain.NewTransfer(f.key, 2, []chain.TxIn{{Prev: prev}},
		[]chain.TxOut{{Value: 1_000, Owner: f.key.Addr}})
	f.mine(tx2)
	for i := 0; i < 4; i++ {
		f.mine()
	}
	ev, err := Build(f.view, cpBlock.Hash(), tx2.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Verify(cpBlock.Header, 4); err != nil {
		t.Fatal(err)
	}
	// A tx *before* the checkpoint cannot be proven from it.
	if _, err := Build(f.view, cpBlock.Hash(), f.tx.ID(), 0); !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("pre-checkpoint tx proven: %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2, 3}, make([]byte, 64)} {
		if _, err := Decode(b); err == nil {
			t.Fatal("garbage decoded")
		}
	}
}

func TestVerifyNilSafety(t *testing.T) {
	var e *Evidence
	if _, err := e.Verify(nil, 0); !errors.Is(err, ErrBadEvidence) {
		t.Fatal("nil evidence verified")
	}
	_ = vm.Amount(0) // keep vm import for fixture extensions
}
