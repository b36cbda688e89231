package chain

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/wire"
)

// testEnv bundles a chain view with funded keys.
type testEnv struct {
	t     *testing.T
	chain *Chain
	keys  map[string]*crypto.KeyPair
	miner *crypto.KeyPair // coinbase recipient, distinct from principals
	rng   *sim.RNG
	nonce uint64
	now   sim.Time
}

func newEnv(t *testing.T, names ...string) *testEnv {
	t.Helper()
	rng := sim.NewRNG(1234)
	keys := make(map[string]*crypto.KeyPair)
	alloc := GenesisAlloc{}
	miner := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	for _, n := range names {
		k := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
		keys[n] = k
		alloc[k.Addr] = 10_000
	}
	params := DefaultParams("testnet")
	params.DifficultyBits = 8 // keep sealing cheap in tests
	reg := vm.NewRegistry()
	reg.Register("vault", func() vm.Contract { return &vault{} })
	exec, err := NewExecutor(params, reg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{t: t, chain: exec.NewView(), keys: keys, miner: miner, rng: rng}
}

// vault is a test contract: locks value, releases to a fixed
// recipient when "open" is called with the right secret byte.
type vault struct {
	Recipient crypto.Address
	Key       byte
	Open      bool
}

type vaultParams struct {
	Recipient crypto.Address
	Key       byte
}

func (p vaultParams) Encode() []byte { return append(p.Recipient[:], p.Key) }

func (p *vaultParams) Decode(b []byte) error {
	r := wire.NewReader(b)
	r.Fill(p.Recipient[:])
	p.Key = r.U8()
	return r.Finish()
}

func (v *vault) Type() string { return "vault" }
func (v *vault) Init(ctx *vm.Ctx, params []byte) error {
	var p vaultParams
	if err := p.Decode(params); err != nil {
		return err
	}
	v.Recipient, v.Key = p.Recipient, p.Key
	return nil
}
func (v *vault) Call(ctx *vm.Ctx, fn string, args []byte) error {
	switch fn {
	case "open":
		if v.Open {
			return errors.New("already open")
		}
		if len(args) != 1 || args[0] != v.Key {
			return errors.New("wrong key")
		}
		v.Open = true
		return ctx.Pay(v.Recipient, ctx.Balance())
	default:
		return vm.ErrUnknownFunction("vault", fn)
	}
}
func (v *vault) Clone() vm.Contract { cp := *v; return &cp }

// utxoOf finds one UTXO of at least want owned by name.
func (e *testEnv) utxoOf(name string, want vm.Amount) (OutPoint, TxOut) {
	e.t.Helper()
	owned := ownedMap(e.chain.TipState(), e.keys[name].Addr)
	for op, o := range owned {
		if o.Value >= want {
			return op, o
		}
	}
	e.t.Fatalf("%s has no UTXO of value >= %d", name, want)
	return OutPoint{}, TxOut{}
}

// mine builds, seals and adds one block with the given txs, failing
// the test on rejection.
func (e *testEnv) mine(txs ...*Tx) *Block {
	e.t.Helper()
	e.now += e.chain.Params().BlockInterval
	b, _, invalid := e.chain.BuildBlock(e.miner.Addr, e.now, txs)
	if len(invalid) > 0 {
		e.t.Fatalf("BuildBlock rejected %d txs; first: kind=%v", len(invalid), invalid[0].Kind)
	}
	if len(b.Txs) != len(txs)+1 {
		e.t.Fatalf("block packed %d txs, want %d (+coinbase)", len(b.Txs), len(txs)+1)
	}
	b.Header.Seal(e.rng.Uint64())
	if _, err := e.chain.AddBlock(b); err != nil {
		e.t.Fatalf("AddBlock: %v", err)
	}
	return b
}

func (e *testEnv) transfer(from, to string, amt vm.Amount) *Tx {
	e.t.Helper()
	op, o := e.utxoOf(from, amt)
	e.nonce++
	outs := []TxOut{{Value: amt, Owner: e.keys[to].Addr}}
	if o.Value > amt {
		outs = append(outs, TxOut{Value: o.Value - amt, Owner: e.keys[from].Addr})
	}
	return NewTransfer(e.keys[from], e.nonce, []TxIn{{Prev: op}}, outs)
}

func TestGenesisDeterministic(t *testing.T) {
	a := newEnv(t, "alice", "bob")
	b := newEnv(t, "alice", "bob")
	if a.chain.exec.genesis.Hash() != b.chain.exec.genesis.Hash() {
		t.Fatal("two identically configured chains disagree on genesis")
	}
}

func TestGenesisAllocSpendable(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	e.mine(e.transfer("alice", "bob", 2_500))
	bobOwned := ownedMap(e.chain.TipState(), e.keys["bob"].Addr)
	var total vm.Amount
	for _, o := range bobOwned {
		total += o.Value
	}
	if total != 12_500 {
		t.Fatalf("bob owns %d, want 12500", total)
	}
}

func TestTransferMergeAndSplit(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	// Split alice's single genesis output into three (Figure 2, TX2).
	op, o := e.utxoOf("alice", 10_000)
	e.nonce++
	split := NewTransfer(e.keys["alice"], e.nonce, []TxIn{{Prev: op}}, []TxOut{
		{Value: 3_000, Owner: e.keys["alice"].Addr},
		{Value: 3_000, Owner: e.keys["alice"].Addr},
		{Value: o.Value - 6_000, Owner: e.keys["alice"].Addr},
	})
	e.mine(split)

	// Merge the three back into one for bob (Figure 2, TX1).
	owned := ownedMap(e.chain.TipState(), e.keys["alice"].Addr)
	var ins []TxIn
	var total vm.Amount
	for opn, out := range owned {
		ins = append(ins, TxIn{Prev: opn})
		total += out.Value
	}
	e.nonce++
	merge := NewTransfer(e.keys["alice"], e.nonce, ins, []TxOut{{Value: total, Owner: e.keys["bob"].Addr}})
	e.mine(merge)

	if got := len(ownedMap(e.chain.TipState(), e.keys["alice"].Addr)); got != 0 {
		t.Fatalf("alice still owns %d outputs", got)
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 1)
	mk := func(nonce uint64) *Tx {
		return NewTransfer(e.keys["alice"], nonce, []TxIn{{Prev: op}},
			[]TxOut{{Value: o.Value, Owner: e.keys["bob"].Addr}})
	}
	tx1, tx2 := mk(1), mk(2)
	e.mine(tx1)
	st := e.chain.TipState().Child()
	err := ApplyTx(st, e.chain.Registry(), e.chain.Params().ID, e.chain.Height()+1, 0, tx2)
	if !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("double spend accepted: %v", err)
	}
}

func TestDoubleSpendWithinOneTxRejected(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 1)
	tx := NewTransfer(e.keys["alice"], 1, []TxIn{{Prev: op}, {Prev: op}},
		[]TxOut{{Value: 2 * o.Value, Owner: e.keys["bob"].Addr}})
	st := e.chain.TipState().Child()
	if err := ApplyTx(st, e.chain.Registry(), "testnet", 1, 0, tx); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("duplicate input accepted: %v", err)
	}
}

func TestSpendOthersAssetRejected(t *testing.T) {
	e := newEnv(t, "alice", "mallory")
	op, o := e.utxoOf("alice", 1)
	theft := NewTransfer(e.keys["mallory"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value, Owner: e.keys["mallory"].Addr}})
	st := e.chain.TipState().Child()
	if err := ApplyTx(st, e.chain.Registry(), "testnet", 1, 0, theft); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("theft accepted: %v", err)
	}
}

func TestValueNotConservedRejected(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 1)
	inflate := NewTransfer(e.keys["alice"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value + 1, Owner: e.keys["bob"].Addr}})
	st := e.chain.TipState().Child()
	if err := ApplyTx(st, e.chain.Registry(), "testnet", 1, 0, inflate); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("inflation accepted: %v", err)
	}
}

func TestTamperedSignatureRejected(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	enc := e.transfer("alice", "bob", 100).Encode()
	enc[len(enc)-1] ^= 1 // tamper on a copy: a signature is never rewritten in place (Tx.Sig)
	tx, err := DecodeTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	st := e.chain.TipState().Child()
	if err := ApplyTx(st, e.chain.Registry(), "testnet", 1, 0, tx); !errors.Is(err, ErrTxInvalid) || !strings.Contains(err.Error(), "bad signature") {
		t.Fatalf("tampered signature accepted: %v", err)
	}
}

func TestContractDeployLocksValue(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 1_000)
	params := vaultParams{Recipient: e.keys["bob"].Addr, Key: 7}.Encode()
	deploy := NewDeploy(e.keys["alice"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 1_000, Owner: e.keys["alice"].Addr}},
		"vault", params, 1_000)
	e.mine(deploy)

	addr := deploy.ContractAddr()
	st := e.chain.TipState()
	if st.Balance(addr) != 1_000 {
		t.Fatalf("contract balance = %d, want 1000", st.Balance(addr))
	}
	if _, ok := st.Contract(addr); !ok {
		t.Fatal("contract not found after deploy")
	}
}

func TestContractCallPaysOut(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 1_000)
	params := vaultParams{Recipient: e.keys["bob"].Addr, Key: 7}.Encode()
	deploy := NewDeploy(e.keys["alice"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 1_000, Owner: e.keys["alice"].Addr}},
		"vault", params, 1_000)
	e.mine(deploy)
	addr := deploy.ContractAddr()

	open := NewCall(e.keys["bob"], 2, addr, "open", []byte{7}, nil, nil, 0)
	e.mine(open)

	st := e.chain.TipState()
	if st.Balance(addr) != 0 {
		t.Fatalf("contract balance = %d after open, want 0", st.Balance(addr))
	}
	var bobTotal vm.Amount
	for _, out := range ownedMap(st, e.keys["bob"].Addr) {
		bobTotal += out.Value
	}
	if bobTotal != 11_000 {
		t.Fatalf("bob owns %d, want 11000", bobTotal)
	}
	v, _ := st.Contract(addr)
	if !v.(*vault).Open {
		t.Fatal("vault state not updated")
	}
}

func TestFailingCallRejected(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 1_000)
	params := vaultParams{Recipient: e.keys["bob"].Addr, Key: 7}.Encode()
	deploy := NewDeploy(e.keys["alice"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 1_000, Owner: e.keys["alice"].Addr}},
		"vault", params, 1_000)
	e.mine(deploy)

	bad := NewCall(e.keys["bob"], 2, deploy.ContractAddr(), "open", []byte{8}, nil, nil, 0)
	st := e.chain.TipState().Child()
	if err := ApplyTx(st, e.chain.Registry(), "testnet", e.chain.Height()+1, 0, bad); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("failing call accepted: %v", err)
	}
	// And the miner excludes it.
	b, _, invalid := e.chain.BuildBlock(e.keys["alice"].Addr, 100, []*Tx{bad})
	if len(invalid) != 1 || len(b.Txs) != 1 {
		t.Fatalf("miner packed a failing call (block=%d txs, invalid=%d)", len(b.Txs), len(invalid))
	}
}

func TestContractStateRevertsOnFailedCall(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 500)
	params := vaultParams{Recipient: e.keys["bob"].Addr, Key: 9}.Encode()
	deploy := NewDeploy(e.keys["alice"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 500, Owner: e.keys["alice"].Addr}},
		"vault", params, 500)
	e.mine(deploy)
	addr := deploy.ContractAddr()

	// Apply a failing call on a scratch overlay; the tip state must
	// remain untouched (copy-on-write isolation).
	bad := NewCall(e.keys["bob"], 2, addr, "open", []byte{1}, nil, nil, 0)
	scratch := e.chain.TipState().Child()
	_ = ApplyTx(scratch, e.chain.Registry(), "testnet", e.chain.Height()+1, 0, bad)
	v, _ := e.chain.TipState().Contract(addr)
	if v.(*vault).Open {
		t.Fatal("tip-state contract mutated by failed call on overlay")
	}
}

func TestUnknownContractTypeRejected(t *testing.T) {
	e := newEnv(t, "alice")
	op, o := e.utxoOf("alice", 100)
	deploy := NewDeploy(e.keys["alice"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 100, Owner: e.keys["alice"].Addr}},
		"no-such-type", nil, 100)
	st := e.chain.TipState().Child()
	if err := ApplyTx(st, e.chain.Registry(), "testnet", 1, 0, deploy); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("unknown contract type accepted: %v", err)
	}
}

func TestForkChoiceLongestChainAndReorg(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	base := e.chain.Tip()

	// Branch A: one block with a transfer to bob.
	txA := e.transfer("alice", "bob", 1_000)
	blockA := e.mine(txA)
	if e.chain.Tip().Hash() != blockA.Hash() {
		t.Fatal("tip should be block A")
	}

	// Branch B: two blocks built on base.
	// Build B1/B2 manually on top of base using the same view's data.
	stBase, _ := e.chain.StateAt(base.Hash())
	_ = stBase
	b1 := NewBlock(Header{
		ChainID: "testnet", Parent: base.Hash(), Height: base.Header.Height + 1,
		Time: 50, Bits: uint8(e.chain.Params().DifficultyBits),
	}, []*Tx{{Kind: TxCoinbase, Nonce: 1, Outs: []TxOut{{Value: 50, Owner: e.keys["bob"].Addr}}}})
	b1.Header.Seal(1)
	if _, err := e.chain.AddBlock(b1); err != nil {
		t.Fatalf("add B1: %v", err)
	}
	if e.chain.Tip().Hash() != blockA.Hash() {
		t.Fatal("tie must keep first-seen tip (block A)")
	}
	b2 := NewBlock(Header{
		ChainID: "testnet", Parent: b1.Hash(), Height: b1.Header.Height + 1,
		Time: 60, Bits: uint8(e.chain.Params().DifficultyBits),
	}, []*Tx{{Kind: TxCoinbase, Nonce: 2, Outs: []TxOut{{Value: 50, Owner: e.keys["bob"].Addr}}}})
	b2.Header.Seal(2)
	reorged, err := e.chain.AddBlock(b2)
	if err != nil {
		t.Fatalf("add B2: %v", err)
	}
	if !reorged || e.chain.Tip().Hash() != b2.Hash() {
		t.Fatal("longer branch did not win")
	}
	if e.chain.Reorgs != 1 {
		t.Fatalf("Reorgs = %d, want 1", e.chain.Reorgs)
	}

	// After the reorg, txA is no longer canonical: bob's transfer is
	// gone and the UTXO set reflects branch B.
	if _, _, found := e.chain.FindTx(txA.ID()); found {
		t.Fatal("abandoned-fork tx still reported canonical")
	}
	if !e.chain.IsCanonical(b1.Hash()) || !e.chain.IsCanonical(b2.Hash()) {
		t.Fatal("branch B not canonical")
	}
	if e.chain.IsCanonical(blockA.Hash()) {
		t.Fatal("block A still canonical")
	}
}

func TestDepthOf(t *testing.T) {
	e := newEnv(t, "alice")
	b1 := e.mine()
	b2 := e.mine()
	b3 := e.mine()
	if d, ok := e.chain.DepthOf(b3.Hash()); !ok || d != 0 {
		t.Fatalf("tip depth = %d/%v", d, ok)
	}
	if d, ok := e.chain.DepthOf(b1.Hash()); !ok || d != 2 {
		t.Fatalf("b1 depth = %d/%v", d, ok)
	}
	if d, ok := e.chain.DepthOf(b2.Hash()); !ok || d != 1 {
		t.Fatalf("b2 depth = %d/%v", d, ok)
	}
	if _, ok := e.chain.DepthOf(crypto.Sum([]byte("unknown"))); ok {
		t.Fatal("unknown block has a depth")
	}
}

func TestFindTxAndTxDepth(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	tx := e.transfer("alice", "bob", 10)
	e.mine(tx)
	b, i, ok := e.chain.FindTx(tx.ID())
	if !ok || b == nil || b.Txs[i].ID() != tx.ID() {
		t.Fatal("FindTx failed")
	}
	e.mine()
	e.mine()
	if d, ok := e.chain.TxDepth(tx.ID()); !ok || d != 2 {
		t.Fatalf("TxDepth = %d/%v, want 2", d, ok)
	}
}

func TestHeadersFrom(t *testing.T) {
	e := newEnv(t, "alice")
	g := e.chain.exec.genesis
	var mined []*Block
	for i := 0; i < 5; i++ {
		mined = append(mined, e.mine())
	}
	hs, ok := e.chain.HeadersFrom(g.Hash())
	if !ok || len(hs) != 5 {
		t.Fatalf("HeadersFrom: ok=%v len=%d", ok, len(hs))
	}
	for i, h := range hs {
		if h.Hash() != mined[i].Hash() {
			t.Fatalf("header %d mismatch", i)
		}
	}
	if _, ok := e.chain.HeadersFrom(crypto.Sum([]byte("x"))); ok {
		t.Fatal("HeadersFrom from unknown ancestor succeeded")
	}
}

func TestBlockRejectedWithBadPoW(t *testing.T) {
	e := newEnv(t, "alice")
	b, _, _ := e.chain.BuildBlock(e.keys["alice"].Addr, 10, nil)
	// Don't seal. With 8 difficulty bits a random unsealed header
	// passes with probability 2^-8; nudge the nonce until it fails.
	for b.Header.CheckPoW() {
		b.Header.Nonce++
	}
	if _, err := e.chain.AddBlock(b); !errors.Is(err, ErrBlockInvalid) {
		t.Fatalf("unsealed block accepted: %v", err)
	}
}

func TestBlockRejectedWithWrongTxRoot(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	tx := e.transfer("alice", "bob", 5)
	b, _, _ := e.chain.BuildBlock(e.keys["alice"].Addr, 10, []*Tx{tx})
	b.Header.TxRoot = crypto.Sum([]byte("forged"))
	b.Header.Seal(0)
	if _, err := e.chain.AddBlock(b); !errors.Is(err, ErrBlockInvalid) {
		t.Fatalf("wrong tx root accepted: %v", err)
	}
}

func TestBlockRejectedUnknownParent(t *testing.T) {
	e := newEnv(t, "alice")
	b := NewBlock(Header{
		ChainID: "testnet", Parent: crypto.Sum([]byte("orphan")), Height: 1,
		Time: 10, Bits: uint8(e.chain.Params().DifficultyBits),
	}, []*Tx{{Kind: TxCoinbase, Nonce: 1, Outs: []TxOut{{Value: 50, Owner: e.keys["alice"].Addr}}}})
	b.Header.Seal(0)
	if _, err := e.chain.AddBlock(b); !errors.Is(err, ErrBlockInvalid) {
		t.Fatalf("orphan accepted: %v", err)
	}
}

func TestBlockRejectedOversizedCoinbase(t *testing.T) {
	e := newEnv(t, "alice")
	b := NewBlock(Header{
		ChainID: "testnet", Parent: e.chain.Tip().Hash(), Height: 1,
		Time: 10, Bits: uint8(e.chain.Params().DifficultyBits),
	}, []*Tx{{Kind: TxCoinbase, Nonce: 1, Outs: []TxOut{{Value: 51, Owner: e.keys["alice"].Addr}}}})
	b.Header.Seal(0)
	if _, err := e.chain.AddBlock(b); !errors.Is(err, ErrBlockInvalid) {
		t.Fatalf("inflated coinbase accepted: %v", err)
	}
}

func TestValueConservation(t *testing.T) {
	e := newEnv(t, "alice", "bob", "carol")
	genesisTotal := e.chain.TipState().TotalValue()

	var blocks int
	e.mine(e.transfer("alice", "bob", 1_000))
	blocks++
	e.mine(e.transfer("bob", "carol", 500))
	blocks++

	op, o := e.utxoOf("carol", 200)
	params := vaultParams{Recipient: e.keys["alice"].Addr, Key: 3}.Encode()
	deploy := NewDeploy(e.keys["carol"], 99, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value - 200, Owner: e.keys["carol"].Addr}},
		"vault", params, 200)
	e.mine(deploy)
	blocks++
	e.mine(NewCall(e.keys["alice"], 100, deploy.ContractAddr(), "open", []byte{3}, nil, nil, 0))
	blocks++

	want := genesisTotal + vm.Amount(blocks)*e.chain.Params().BlockReward
	if got := e.chain.TipState().TotalValue(); got != want {
		t.Fatalf("total value = %d, want %d (genesis %d + %d coinbases)", got, want, genesisTotal, blocks)
	}
}

func TestOverlayFlattenPreservesState(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	// Mine enough blocks to force several flattens (flattenDepth=48).
	for i := 0; i < 120; i++ {
		e.mine(e.transfer("alice", "bob", 1))
	}
	var bobTotal vm.Amount
	for _, o := range ownedMap(e.chain.TipState(), e.keys["bob"].Addr) {
		bobTotal += o.Value
	}
	if bobTotal != 10_000+120 {
		t.Fatalf("bob owns %d after 120 transfers, want %d", bobTotal, 10_000+120)
	}
	if d := e.chain.TipState().OverlayDepth(); d > flattenDepth {
		t.Fatalf("overlay depth %d exceeds flatten threshold %d", d, flattenDepth)
	}
}

func TestStateAtDepth(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	e.mine(e.transfer("alice", "bob", 1_000)) // height 1
	e.mine()                                  // height 2
	e.mine()                                  // height 3

	stNow, _ := e.chain.StateAtDepth(0)
	stOld, ok := e.chain.StateAtDepth(3) // genesis
	if !ok {
		t.Fatal("StateAtDepth(3) failed")
	}
	bobNow := ownedMap(stNow, e.keys["bob"].Addr)
	bobOld := ownedMap(stOld, e.keys["bob"].Addr)
	if len(bobNow) <= len(bobOld) {
		t.Fatal("deep state should predate the transfer")
	}
	if _, ok := e.chain.StateAtDepth(1000); ok {
		t.Fatal("absurd depth accepted")
	}
}

func TestBuildBlockRespectsCapacity(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	params := e.chain.Params()
	params.MaxBlockTxs = 2
	exec, err := NewExecutor(params, e.chain.Registry(), GenesisAlloc{e.keys["alice"].Addr: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	small := exec.NewView()
	// Split alice's funds so she has several outputs.
	op, o := ownedMap(small.TipState(), e.keys["alice"].Addr), TxOut{}
	_ = o
	var prev OutPoint
	for p := range op {
		prev = p
	}
	split := NewTransfer(e.keys["alice"], 1, []TxIn{{Prev: prev}}, []TxOut{
		{Value: 2_500, Owner: e.keys["alice"].Addr},
		{Value: 2_500, Owner: e.keys["alice"].Addr},
		{Value: 2_500, Owner: e.keys["alice"].Addr},
		{Value: 2_500, Owner: e.keys["alice"].Addr},
	})
	b, _, _ := small.BuildBlock(e.keys["alice"].Addr, 10, []*Tx{split})
	b.Header.Seal(0)
	if _, err := small.AddBlock(b); err != nil {
		t.Fatal(err)
	}

	var txs []*Tx
	n := uint64(10)
	for p, out := range ownedMap(small.TipState(), e.keys["alice"].Addr) {
		n++
		txs = append(txs, NewTransfer(e.keys["alice"], n, []TxIn{{Prev: p}},
			[]TxOut{{Value: out.Value, Owner: e.keys["bob"].Addr}}))
	}
	blk, _, invalid := small.BuildBlock(e.keys["alice"].Addr, 20, txs)
	if len(blk.Txs) != 3 { // coinbase + 2
		t.Fatalf("block has %d txs, want 3", len(blk.Txs))
	}
	if len(invalid) != 0 {
		t.Fatalf("capacity overflow reported as invalid (%d)", len(invalid))
	}
}

func TestBuildBlockChainsDependentTxs(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	op, o := e.utxoOf("alice", 10_000)
	tx1 := NewTransfer(e.keys["alice"], 1, []TxIn{{Prev: op}},
		[]TxOut{{Value: o.Value, Owner: e.keys["bob"].Addr}})
	// tx2 spends tx1's output — submitted first.
	tx2 := NewTransfer(e.keys["bob"], 2, []TxIn{{Prev: OutPoint{TxID: tx1.ID(), Index: 0}}},
		[]TxOut{{Value: o.Value, Owner: e.keys["alice"].Addr}})
	b, _, invalid := e.chain.BuildBlock(e.keys["alice"].Addr, 10, []*Tx{tx2, tx1})
	if len(invalid) != 0 || len(b.Txs) != 3 {
		t.Fatalf("dependent txs not packed: %d txs, %d invalid", len(b.Txs), len(invalid))
	}
}

func TestCoinbaseRequired(t *testing.T) {
	e := newEnv(t, "alice")
	b := NewBlock(Header{
		ChainID: "testnet", Parent: e.chain.Tip().Hash(), Height: 1,
		Time: 10, Bits: uint8(e.chain.Params().DifficultyBits),
	}, nil)
	b.Header.Seal(0)
	if _, err := e.chain.AddBlock(b); !errors.Is(err, ErrBlockInvalid) {
		t.Fatalf("block without coinbase accepted: %v", err)
	}
}

func TestDuplicateBlockIgnored(t *testing.T) {
	e := newEnv(t, "alice")
	b := e.mine()
	reorged, err := e.chain.AddBlock(b)
	if err != nil || reorged {
		t.Fatalf("re-adding block: reorged=%v err=%v", reorged, err)
	}
}

func TestWrongChainIDRejected(t *testing.T) {
	e := newEnv(t, "alice")
	b, _, _ := e.chain.BuildBlock(e.keys["alice"].Addr, 10, nil)
	b.Header.ChainID = "othernet"
	b.Header.Seal(0)
	if _, err := e.chain.AddBlock(b); !errors.Is(err, ErrBlockInvalid) {
		t.Fatalf("wrong chain id accepted: %v", err)
	}
}
