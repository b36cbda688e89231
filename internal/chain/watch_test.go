package chain

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/crypto"
)

// deployVault mines a vault deployment and returns its transaction.
func (e *testEnv) deployVault(nonce uint64) *Tx {
	e.t.Helper()
	op, o := e.utxoOf("alice", 1_000)
	deploy := NewDeploy(e.keys["alice"], nonce, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 1_000, Owner: e.keys["alice"].Addr}},
		"vault", vaultParams{Recipient: e.keys["bob"].Addr, Key: 7}.Encode(), 1_000)
	e.mine(deploy)
	return deploy
}

// TestRejectionFormatsLazily pins the two halves of the lazy rejection:
// the text is what the eager fmt.Errorf("%w: …") produced, and
// errors.Is still finds ErrTxInvalid — directly and through ApplyBlock's
// wrapping.
func TestRejectionFormatsLazily(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	addr := e.deployVault(1).ContractAddr()
	st := e.chain.TipState().Child()
	next := e.chain.Height() + 1

	bad := NewCall(e.keys["bob"], 2, addr, "open", []byte{8}, nil, nil, 0)
	err := ApplyTx(st, e.chain.Registry(), "testnet", next, 0, bad)
	if want := fmt.Sprintf("chain: invalid transaction: call %s.open failed: wrong key", addr); err == nil || err.Error() != want {
		t.Fatalf("failed call:\n got %v\nwant %s", err, want)
	}
	if !errors.Is(err, ErrTxInvalid) || errors.Is(err, ErrBlockInvalid) {
		t.Fatalf("errors.Is on %v: ErrTxInvalid %v, ErrBlockInvalid %v", err, errors.Is(err, ErrTxInvalid), errors.Is(err, ErrBlockInvalid))
	}

	var nowhere crypto.Address
	nowhere[0] = 9
	err = ApplyTx(st, e.chain.Registry(), "testnet", next, 0, NewCall(e.keys["bob"], 3, nowhere, "open", nil, nil, nil, 0))
	if want := fmt.Sprintf("chain: invalid transaction: no contract at %s", nowhere); err == nil || err.Error() != want {
		t.Fatalf("call into the void:\n got %v\nwant %s", err, want)
	}

	err = ApplyTx(st, e.chain.Registry(), "testnet", 0, 0, &Tx{Kind: TxCoinbase})
	if err == nil || err.Error() != "chain: invalid transaction: coinbase in genesis block" || !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("argument-free rejection: %v", err)
	}

	// A block carrying the failing call is invalid, and says why.
	b, _, _ := e.chain.BuildBlock(e.miner.Addr, e.now+1, nil)
	b = NewBlock(*b.Header, append(b.Txs, bad))
	b.Header.Seal(1)
	_, err = e.chain.AddBlock(b)
	if want := fmt.Sprintf("chain: invalid block: tx 1 (call): chain: invalid transaction: call %s.open failed: wrong key", addr); err == nil || err.Error() != want {
		t.Fatalf("block with failing call:\n got %v\nwant %s", err, want)
	}
	if !errors.Is(err, ErrBlockInvalid) {
		t.Fatalf("block rejection %v is not ErrBlockInvalid", err)
	}
}

// TestVerifySigRunsOncePerObject: the verdict is kept on the
// transaction, so a second question never reaches ed25519 — the tally
// counts one signing and one verification however often it is asked —
// while another object with the same id answers for itself. (What the
// miner network's verify-once count rests on.) The signature is written
// by the first question, and is the one the key gives.
func TestVerifySigRunsOncePerObject(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 100)
	tx := NewTransfer(e.keys["alice"], 1, []TxIn{{Prev: op}}, []TxOut{{Value: o.Value, Owner: e.keys["bob"].Addr}})
	if !bytes.Equal(tx.Sig.Sig, make([]byte, 64)) {
		t.Fatal("the signature was written before anyone asked")
	}
	var sigs crypto.SigTally
	if !tx.verifySig(&sigs) || !tx.verifySig(&sigs) || !tx.VerifySig() {
		t.Fatal("fresh signature rejected")
	}
	if sigs != (crypto.SigTally{Inline: 1}) || !tx.Sig.Equal(e.keys["alice"].Sign(tx.SigHash().Bytes())) {
		t.Fatalf("three questions, tally %+v: want one signing and verification, by the key", sigs)
	}
	enc := tx.Encode()
	enc[len(enc)-1] ^= 1
	fresh, err := DecodeTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID() != tx.ID() || fresh.verifySig(&sigs) || sigs.Inline != 2 {
		t.Fatalf("another object with the signature broken: verified, or not asked (tally %+v)", sigs)
	}
}

// TestSignerDerivedOncePerObject: the signer's address is a hash of the
// public key, asked for several times per validation of every
// candidate; the transaction keeps the answer — shown, as above, by
// changing the key after the first one.
func TestSignerDerivedOncePerObject(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	tx := e.transfer("alice", "bob", 100)
	if tx.Signer() != e.keys["alice"].Addr {
		t.Fatal("signer is not the signing key's address")
	}
	tx.Sig.Pub[0] ^= 1
	if tx.Signer() != e.keys["alice"].Addr {
		t.Fatal("second Signer re-derived the address")
	}
	if tx.Sig.Signer() == e.keys["alice"].Addr {
		t.Fatal("the changed key still hashes to the old address")
	}
}

func TestBlockTouches(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	deploy := e.deployVault(1)
	addr := deploy.ContractAddr()
	deployBlock := e.chain.Tip()
	pay := e.transfer("alice", "bob", 100)
	open := NewCall(e.keys["bob"], 2, addr, "open", []byte{7}, nil, nil, 0)
	callBlock := e.mine(pay, open)
	quiet := e.mine()

	var other crypto.Address
	other[3] = 1
	cases := []struct {
		name  string
		b     *Block
		addrs []crypto.Address
		txs   []crypto.Hash
		want  bool
	}{
		{"deployment of a watched contract", deployBlock, []crypto.Address{other, addr}, nil, true},
		{"call on a watched contract", callBlock, []crypto.Address{addr}, nil, true},
		{"watched transaction", callBlock, nil, []crypto.Hash{pay.ID()}, true},
		{"deploy transaction watched by id", deployBlock, nil, []crypto.Hash{deploy.ID()}, true},
		{"other contract, other transaction", callBlock, []crypto.Address{other}, []crypto.Hash{deploy.ID()}, false},
		{"coinbase-only block", quiet, []crypto.Address{addr}, []crypto.Hash{pay.ID()}, false},
		{"nothing watched", callBlock, nil, nil, false},
	}
	for _, tc := range cases {
		if got := tc.b.Touches(tc.addrs, tc.txs); got != tc.want {
			t.Errorf("%s: Touches = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSince: the summary of a view's movement since an earlier tip is
// the blocks above it, however many tip events that took, and "reorged"
// exactly when the earlier tip was abandoned.
func TestSince(t *testing.T) {
	e, f := forkEnv(t)
	genesis := e.chain.Genesis()
	a1 := e.mine(e.transfer("alice", "bob", 100)) // the twin view's empty blocks must differ
	a2 := e.mine()

	if got, reorged := e.chain.Since(a2, nil); reorged || len(got) != 0 {
		t.Fatalf("since the tip itself: %v, reorged %v", got, reorged)
	}
	if got, reorged := e.chain.Since(a1, nil); reorged || len(got) != 1 || got[0] != a2 {
		t.Fatalf("one block on: %v, reorged %v", got, reorged)
	}
	buf := make([]*Block, 0, 4)
	got, reorged := e.chain.Since(genesis, buf)
	if reorged || len(got) != 2 || got[0] != a1 || got[1] != a2 {
		t.Fatalf("two blocks on: %v, reorged %v", got, reorged)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("Since did not append to the caller's buffer")
	}

	// A longer branch from genesis abandons a1 and a2.
	for i := 0; i < 3; i++ {
		if _, err := e.chain.AddBlock(f.mine()); err != nil {
			t.Fatal(err)
		}
	}
	if e.chain.Reorgs != 1 {
		t.Fatalf("fixture: %d reorgs, want 1", e.chain.Reorgs)
	}
	if _, reorged := e.chain.Since(a2, nil); !reorged {
		t.Fatal("abandoned tip not reported as a reorg")
	}
	if _, reorged := e.chain.Since(a1, nil); !reorged {
		t.Fatal("abandoned ancestor not reported as a reorg")
	}
	// Genesis survived the reorg: from there the move nets out to an
	// extension by the adopted branch.
	if got, reorged := e.chain.Since(genesis, nil); reorged || len(got) != 3 || got[2] != e.chain.Tip() {
		t.Fatalf("since the fork point: %v, reorged %v", got, reorged)
	}
}

// TestNextBurial: a read at depth d flips when an operation already on
// the chain gets d blocks on top — and at no other height unless a new
// block touches the contract.
func TestNextBurial(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	e.mine()
	e.mine()
	deploy := e.deployVault(1) // height 3
	addr := deploy.ContractAddr()
	if h := e.chain.Height(); h != 3 {
		t.Fatalf("fixture: deploy at height %d", h)
	}
	exists := func(depth int) bool { _, ok := e.chain.ContractAtDepth(addr, depth); return ok }

	if h, ok := e.chain.NextBurial(addr, 2); !ok || h != 5 {
		t.Fatalf("deployed at 3, read at depth 2: next burial %d (%v), want 5", h, ok)
	}
	if exists(2) {
		t.Fatal("contract visible at depth 2 right after deployment")
	}
	e.mine() // 4
	if h, ok := e.chain.NextBurial(addr, 2); !ok || h != 5 || exists(2) {
		t.Fatalf("at height 4: next burial %d (%v), visible %v", h, ok, exists(2))
	}
	open := NewCall(e.keys["bob"], 2, addr, "open", []byte{7}, nil, nil, 0)
	e.mine(open) // 5: the deployment surfaces, the call is pending
	if !exists(2) {
		t.Fatal("contract not visible at depth 2 at the burial height")
	}
	if h, ok := e.chain.NextBurial(addr, 2); !ok || h != 7 {
		t.Fatalf("call at 5, read at depth 2: next burial %d (%v), want 7", h, ok)
	}
	if h, ok := e.chain.NextBurial(addr, 1); !ok || h != 6 {
		t.Fatalf("call at 5, read at depth 1: next burial %d (%v), want 6", h, ok)
	}
	e.mine()
	e.mine() // 7
	if ct, _ := e.chain.ContractAtDepth(addr, 2); !ct.(*vault).Open {
		t.Fatal("call not visible at depth 2 at its burial height")
	}
	if h, ok := e.chain.NextBurial(addr, 2); ok {
		t.Fatalf("nothing pending, yet next burial at %d", h)
	}
	var other crypto.Address
	other[0] = 5
	if _, ok := e.chain.NextBurial(other, 2); ok {
		t.Fatal("burial pending for a contract nobody touched")
	}
}
