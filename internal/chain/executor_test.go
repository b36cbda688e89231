package chain

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// execEnv builds one shared executor and n replica views over it.
func execEnv(t *testing.T, n int) (*Executor, []*Chain, *crypto.KeyPair) {
	t.Helper()
	rng := sim.NewRNG(77)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	params := DefaultParams("testnet")
	params.DifficultyBits = 8
	exec, err := NewExecutor(params, nil, GenesisAlloc{key.Addr: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	views := make([]*Chain, n)
	for i := range views {
		views[i] = exec.NewView()
	}
	return exec, views, key
}

// mineOn builds, seals, and adopts one block on view v via the
// mined-block path (the build is the execution).
func mineOn(t *testing.T, v *Chain, miner crypto.Address, at sim.Time, txs ...*Tx) *Block {
	t.Helper()
	b, built, invalid := v.BuildBlock(miner, at, txs)
	if len(invalid) != 0 {
		t.Fatalf("BuildBlock rejected %d txs", len(invalid))
	}
	b.Header.Seal(uint64(at))
	if _, err := v.AddMinedBlock(b, built); err != nil {
		t.Fatalf("AddMinedBlock: %v", err)
	}
	return b
}

// TestSharedExecutorDivergentViews drives two views of one executor
// onto different forks and back together: tips diverge per view while
// every block executes exactly once network-wide, and replaying a
// fork into the other view is pure cache hits.
func TestSharedExecutorDivergentViews(t *testing.T) {
	exec, views, key := execEnv(t, 2)
	v1, v2 := views[0], views[1]
	rng := sim.NewRNG(78)
	m1 := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	m2 := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	// Fork A: one block on v1. Fork B: two blocks on v2.
	a1 := mineOn(t, v1, m1.Addr, 10)
	b1 := mineOn(t, v2, m2.Addr, 20)
	b2 := mineOn(t, v2, m2.Addr, 30)

	if v1.Tip().Hash() != a1.Hash() || v2.Tip().Hash() != b2.Hash() {
		t.Fatal("views do not hold their own tips")
	}
	if v1.HasBlock(b1.Hash()) || v2.HasBlock(a1.Hash()) {
		t.Fatal("view sees a block it never accepted")
	}
	st := exec.Stats()
	if st.Executed != 4 { // genesis + a1 + b1 + b2
		t.Fatalf("Executed = %d, want 4", st.Executed)
	}
	if st.Hits != 0 {
		t.Fatalf("Hits = %d before any replay, want 0", st.Hits)
	}

	// Replay fork B into v1: both adds must be cache hits, and v1 must
	// reorg onto the longer fork while v2 stays untouched.
	if _, err := v1.AddBlock(b1); err != nil {
		t.Fatalf("replay b1: %v", err)
	}
	reorged, err := v1.AddBlock(b2)
	if err != nil || !reorged {
		t.Fatalf("replay b2: reorged=%v err=%v", reorged, err)
	}
	if v1.Reorgs != 1 || v2.Reorgs != 0 {
		t.Fatalf("Reorgs = %d/%d, want 1/0", v1.Reorgs, v2.Reorgs)
	}
	st = exec.Stats()
	if st.Executed != 4 || st.Hits != 2 {
		t.Fatalf("after replay: Executed=%d Hits=%d, want 4/2", st.Executed, st.Hits)
	}

	// Both views now agree on the canonical chain and literally share
	// the tip state object — one execution, one state, N readers.
	if v1.Tip().Hash() != v2.Tip().Hash() {
		t.Fatal("views disagree after replay")
	}
	if v1.TipState() != v2.TipState() {
		t.Fatal("converged views hold distinct state objects")
	}

	// A transfer committed on the shared fork is visible through both
	// views' (shared) state.
	tx := mustTransfer(t, v2, key, 1, 5_000)
	mineOn(t, v2, m2.Addr, 40, tx)
	if _, err := v1.AddBlock(v2.Tip()); err != nil {
		t.Fatalf("propagate transfer block: %v", err)
	}
	if _, _, found := v1.FindTx(tx.ID()); !found {
		t.Fatal("transfer not found through second view")
	}
}

// mustTransfer builds a self-transfer spending one of key's outputs on
// v's tip state.
func mustTransfer(t *testing.T, v *Chain, key *crypto.KeyPair, nonce uint64, amt vm.Amount) *Tx {
	t.Helper()
	for op, o := range ownedMap(v.TipState(), key.Addr) {
		if o.Value >= amt {
			return NewTransfer(key, nonce, []TxIn{{Prev: op}},
				[]TxOut{{Value: o.Value, Owner: key.Addr}})
		}
	}
	t.Fatalf("no output of value >= %d", amt)
	return nil
}

// TestSharedExecutorCachedInvalidRejection verifies failure caching:
// the first view pays for discovering a block is invalid, the second
// view gets the identical verdict without re-execution.
func TestSharedExecutorCachedInvalidRejection(t *testing.T) {
	exec, views, _ := execEnv(t, 2)
	v1, v2 := views[0], views[1]
	rng := sim.NewRNG(79)
	m := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	bad, _, _ := v1.BuildBlock(m.Addr, 10, nil)
	bad.Header.TxRoot = crypto.Sum([]byte("forged"))
	bad.Header.Seal(0)

	before := exec.Stats()
	_, err1 := v1.AddBlock(bad)
	if !errors.Is(err1, ErrBlockInvalid) {
		t.Fatalf("forged block accepted by v1: %v", err1)
	}
	mid := exec.Stats()
	if mid.Executed != before.Executed+1 {
		t.Fatalf("invalid block not executed once: %d -> %d", before.Executed, mid.Executed)
	}

	_, err2 := v2.AddBlock(bad)
	if !errors.Is(err2, ErrBlockInvalid) {
		t.Fatalf("forged block accepted by v2: %v", err2)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("views got different verdicts: %q vs %q", err1, err2)
	}
	after := exec.Stats()
	if after.Executed != mid.Executed || after.Hits != mid.Hits+1 {
		t.Fatalf("second rejection not served from cache: %+v -> %+v", mid, after)
	}
	if v1.HasBlock(bad.Hash()) || v2.HasBlock(bad.Hash()) {
		t.Fatal("invalid block entered a view")
	}
}

// TestExecutorRejectsBrokenLinkage: a block whose height skips its
// parent's, and one whose time runs back before its parent's, are
// rejected before any state is applied, each with its own cause — and
// the verdict is cached, so a second Execute of either answers from the
// cache without running it.
func TestExecutorRejectsBrokenLinkage(t *testing.T) {
	exec, views, _ := execEnv(t, 1)
	v := views[0]
	m := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(81).Uint64))
	parent := mineOn(t, v, m.Addr, 20)

	skip, _, _ := v.BuildBlock(m.Addr, 30, nil)
	skip.Header.Height = parent.Header.Height + 2
	back, _, _ := v.BuildBlock(m.Addr, 30, nil)
	back.Header.Time = parent.Header.Time - 1
	for _, c := range []struct {
		name  string
		block *Block
		cause string
	}{
		{"height skip", skip, "height 3 after parent height 1"},
		{"time backwards", back, "time goes backwards"},
	} {
		before := exec.Stats()
		_, err := exec.Execute(c.block)
		if !errors.Is(err, ErrBlockInvalid) || !strings.HasSuffix(err.Error(), ": "+c.cause) {
			t.Fatalf("%s: Execute = %v, want %v: %s", c.name, err, ErrBlockInvalid, c.cause)
		}
		mid := exec.Stats()
		if mid.Executed != before.Executed {
			t.Fatalf("%s: a broken linkage ran the block: Executed %d -> %d", c.name, before.Executed, mid.Executed)
		}
		if _, again := exec.Execute(c.block); again != err {
			t.Fatalf("%s: second Execute = %v, want the cached %v", c.name, again, err)
		}
		if after := exec.Stats(); after.Executed != mid.Executed || after.Hits != mid.Hits+1 {
			t.Fatalf("%s: second rejection not served from the cache: %+v -> %+v", c.name, mid, after)
		}
	}
}

// TestBuildBlockFailedTxLeavesNoTrace pins the trial-overlay build:
// a contract call that fails mid-application (inputs consumed, then
// the call rejected) must not contaminate the block state under
// construction, because that state is committed as the block's
// network-wide execution result.
func TestBuildBlockFailedTxLeavesNoTrace(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 1_000)
	params := vaultParams{Recipient: e.keys["bob"].Addr, Key: 7}.Encode()
	deploy := NewDeploy(e.keys["alice"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 1_000, Owner: e.keys["alice"].Addr}},
		"vault", params, 1_000)
	e.mine(deploy)
	addr := deploy.ContractAddr()

	// A funded call with the wrong key: consumeInputs and the change
	// output succeed before the contract rejects the call.
	op2, o2 := e.utxoOf("bob", 100)
	badCall := NewCall(e.keys["bob"], 2, addr, "open", []byte{9},
		[]TxIn{{Prev: op2}}, []TxOut{{Value: o2.Value, Owner: e.keys["bob"].Addr}}, 0)
	b, built, invalid := e.chain.BuildBlock(e.miner.Addr, 100, []*Tx{badCall})
	if len(invalid) != 1 || len(b.Txs) != 1 {
		t.Fatalf("failing call not excluded: %d txs, %d invalid", len(b.Txs), len(invalid))
	}
	// The built state must still hold bob's output unspent: the failed
	// trial was discarded wholesale.
	if _, live := built.UTXO(op2); !live {
		t.Fatal("failed call's consumed input leaked into the built state")
	}
	// And the built state matches a from-scratch re-execution.
	b.Header.Seal(0)
	parentState, _ := e.chain.StateAt(b.Header.Parent)
	if _, err := ApplyBlock(parentState, e.chain.Registry(), e.chain.Params(), b); err != nil {
		t.Fatalf("built block does not re-execute: %v", err)
	}
}

// TestNewChainViewsInteroperate pins cross-executor interop: two
// independently constructed executors with equal genesis exchange
// blocks by value (the pre-shared-store behavior tests and SPV
// followers rely on).
func TestNewChainViewsInteroperate(t *testing.T) {
	_, views1, _ := execEnv(t, 1)
	_, views2, _ := execEnv(t, 1)
	v1, v2 := views1[0], views2[0]
	if v1.exec.genesis.Hash() != v2.exec.genesis.Hash() {
		t.Fatal("equal configs produced different genesis")
	}
	rng := sim.NewRNG(80)
	m := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	b := mineOn(t, v1, m.Addr, 10)
	if _, err := v2.AddBlock(b); err != nil {
		t.Fatalf("foreign executor rejected valid block: %v", err)
	}
	if v2.Tip().Hash() != b.Hash() {
		t.Fatal("block did not become v2's tip")
	}
}

// BenchmarkBlockPropagation measures adopting a pre-built chain of
// blocks into N replica views — the per-network cost of block
// propagation. shared: N views over one executor (one execution per
// block, N-1 cache hits). per-view: N private executors, the
// pre-shared-store behavior (N executions per block).
func BenchmarkBlockPropagation(b *testing.B) {
	const replicas = 4
	rng := sim.NewRNG(81)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	minerKey := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	params := DefaultParams("bench")
	params.DifficultyBits = 0
	params.MaxBlockTxs = 9
	alloc := GenesisAlloc{key.Addr: 1 << 40}

	// Pre-build the block stream once on a scratch network.
	exec, err := NewExecutor(params, nil, alloc)
	if err != nil {
		b.Fatal(err)
	}
	builder := exec.NewView()
	var blocks []*Block
	nonce := uint64(0)
	now := sim.Time(10)
	for n := 0; n < 32; n++ {
		var txs []*Tx
		for op, o := range ownedMap(builder.TipState(), key.Addr) {
			nonce++
			outs := []TxOut{{Value: o.Value / 2, Owner: key.Addr}, {Value: o.Value - o.Value/2, Owner: key.Addr}}
			if o.Value < 2 {
				outs = []TxOut{{Value: o.Value, Owner: key.Addr}}
			}
			txs = append(txs, NewTransfer(key, nonce, []TxIn{{Prev: op}}, outs))
			if len(txs) >= 8 {
				break
			}
		}
		now += params.BlockInterval
		blk, _, invalid := builder.BuildBlock(minerKey.Addr, now, txs)
		if len(invalid) != 0 {
			b.Fatalf("fixture block %d rejected %d txs", n, len(invalid))
		}
		blk.Header.Seal(0)
		if _, err := builder.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
		blocks = append(blocks, blk)
	}

	propagate := func(b *testing.B, views []*Chain) {
		b.Helper()
		for _, blk := range blocks {
			for _, v := range views {
				if _, err := v.AddBlock(blk); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run(fmt.Sprintf("shared-executor/replicas=%d", replicas), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exec, err := NewExecutor(params, nil, alloc)
			if err != nil {
				b.Fatal(err)
			}
			views := make([]*Chain, replicas)
			for j := range views {
				views[j] = exec.NewView()
			}
			propagate(b, views)
		}
	})
	b.Run(fmt.Sprintf("per-view/replicas=%d", replicas), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			views := make([]*Chain, replicas)
			for j := range views {
				exec, err := NewExecutor(params, nil, alloc)
				if err != nil {
					b.Fatal(err)
				}
				views[j] = exec.NewView()
			}
			propagate(b, views)
		}
	})
}

// TestRejectedCopyDoesNotPoisonItsBlock: a block's hash covers its
// transactions' ids, and an id covers neither the signature nor whether
// the arguments travel whole. A relayed copy of an honest block carrying
// a transaction with another signature, or in its id form, hashes alike
// and is refused — and the honest block, offered next to the same view,
// is still adopted: the refusal is the copy's, not the hash's.
func TestRejectedCopyDoesNotPoisonItsBlock(t *testing.T) {
	key := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(97).Uint64))
	reg := vm.NewRegistry()
	reg.Register("probe", func() vm.Contract { return &probe{} })
	for _, row := range []struct {
		name, err string
		copyOf    func(call *Tx) []byte
	}{
		{"a swapped signature", "bad signature", func(call *Tx) []byte {
			enc := call.Encode()
			enc[len(enc)-1] ^= 1
			return enc
		}},
		{"the id form", "id form", func(call *Tx) []byte { return call.AppendIDForm(nil) }},
	} {
		var execs [2]*Executor
		for i := range execs {
			exec, err := NewExecutor(pruneParams(0, 0), reg, GenesisAlloc{key.Addr: 10_000})
			if err != nil {
				t.Fatal(err)
			}
			execs[i] = exec
		}
		v, relayed := execs[0].NewView(), execs[1].NewView()
		dep := NewDeploy(key, 1, nil, nil, "probe", nil, 0)
		call := NewCall(key, 2, dep.ContractAddr(), "look", make([]byte, 100), nil, nil, 0)
		if _, err := relayed.AddBlock(mineOn(t, v, key.Addr, 10, dep)); err != nil {
			t.Fatal(err)
		}
		honest := mineOn(t, v, key.Addr, 20, call)
		tx, err := DecodeTx(row.copyOf(call))
		if err != nil {
			t.Fatal(err)
		}
		forged := NewBlock(*honest.Header, []*Tx{honest.Txs[0], tx})
		if forged.Hash() != honest.Hash() {
			t.Fatalf("%s: the copy hashes differently", row.name)
		}
		if _, err := relayed.AddBlock(forged); err == nil || !strings.Contains(err.Error(), row.err) {
			t.Fatalf("%s: the copy was not refused for %q: %v", row.name, row.err, err)
		}
		if _, err := relayed.AddBlock(honest); err != nil || relayed.Tip().Hash() != honest.Hash() {
			t.Errorf("%s: the honest block, offered after its refused copy: %v", row.name, err)
		}
	}
}
