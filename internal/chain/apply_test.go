package chain

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// TestApplyTxIsAllOrNothing applies one transaction per rejection path
// of ApplyTx and compares the state it was refused on with a twin that
// never saw it, through every read a caller has: UTXO, AppendOwned,
// Contract, Balance and TotalValue. Each row runs on a fresh overlay
// (block building) and on a private base (the executor's floor). Seven
// rows reject only after the inputs and outputs were checked — a bad
// output, value not conserved, a failing constructor, a missing or
// refusing contract, a second mint output to the zero address — which
// is where an ApplyTx that wrote as it checked left a transaction half
// applied.
func TestApplyTxIsAllOrNothing(t *testing.T) {
	e := newEnv(t, "alice", "bob", "mallory")
	alice, bob, mallory := e.keys["alice"], e.keys["bob"], e.keys["mallory"]

	// Split alice's genesis output so every row has one of its own, and
	// deploy a vault (with and without inputs) for the rows that call one.
	op, o := e.utxoOf("alice", 10_000)
	const parts = 16
	outs := make([]TxOut, parts)
	for i := range outs {
		outs[i] = TxOut{Value: o.Value / parts, Owner: alice.Addr}
	}
	split := NewTransfer(alice, 1, []TxIn{{Prev: op}}, outs)
	e.mine(split)
	coin := func(i int) (OutPoint, TxOut) { return OutPoint{TxID: split.ID(), Index: uint32(i)}, outs[i] }
	vaultOp, vaultOut := coin(0)
	params := vaultParams{Recipient: bob.Addr, Key: 7}.Encode()
	deployed := NewDeploy(alice, 2, []TxIn{{Prev: vaultOp}}, []TxOut{{Value: vaultOut.Value - 100, Owner: alice.Addr}}, "vault", params, 100)
	bare := NewDeploy(alice, 3, nil, nil, "vault", params, 0)
	e.mine(deployed, bare)
	vaultAddr := deployed.ContractAddr()

	// A signed transaction whose signature no longer matches its body.
	tampered := func() *Tx {
		op, out := coin(1)
		enc := NewTransfer(alice, 4, []TxIn{{Prev: op}}, []TxOut{{Value: out.Value, Owner: bob.Addr}}).Encode()
		enc[len(enc)-1] ^= 1
		tx, err := DecodeTx(enc)
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	// spend builds a transfer of coin i to bob with the given outputs.
	spend := func(i int, outs func(TxOut) []TxOut) *Tx {
		op, out := coin(i)
		return NewTransfer(alice, uint64(100+i), []TxIn{{Prev: op}}, outs(out))
	}
	// funded returns coin i as inputs and change for a deploy or call
	// moving value into a contract.
	funded := func(i int, value vm.Amount) ([]TxIn, []TxOut) {
		op, out := coin(i)
		return []TxIn{{Prev: op}}, []TxOut{{Value: out.Value - value, Owner: alice.Addr}}
	}
	var missing OutPoint
	missing.TxID[0] = 0xEE

	rows := []struct {
		name, err string
		tx        *Tx
	}{
		{"bad signature", "bad signature", tampered()},
		{"missing input", "missing or spent", NewTransfer(alice, 5, []TxIn{{Prev: missing}}, []TxOut{{Value: 1, Owner: bob.Addr}})},
		{"duplicate input", "duplicate input", func() *Tx {
			op, out := coin(2)
			return NewTransfer(alice, 6, []TxIn{{Prev: op}, {Prev: op}}, []TxOut{{Value: 2 * out.Value, Owner: bob.Addr}})
		}()},
		{"foreign input", "owned by", func() *Tx {
			op, out := coin(3)
			return NewTransfer(mallory, 7, []TxIn{{Prev: op}}, []TxOut{{Value: out.Value, Owner: mallory.Addr}})
		}()},
		{"zero-address output", "to zero address", spend(4, func(out TxOut) []TxOut {
			return []TxOut{{Value: 1, Owner: bob.Addr}, {Value: out.Value - 1}}
		})},
		{"zero-value output", "zero value", spend(5, func(out TxOut) []TxOut {
			return []TxOut{{Value: out.Value, Owner: bob.Addr}, {Value: 0, Owner: bob.Addr}}
		})},
		{"value not conserved", "value not conserved", spend(6, func(out TxOut) []TxOut {
			return []TxOut{{Value: out.Value + 1, Owner: bob.Addr}}
		})},
		{"unsigned deploy", "unsigned deploy", &Tx{Kind: TxDeploy, Nonce: 8, ContractType: "vault", Params: params}},
		{"unsigned call", "unsigned call", &Tx{Kind: TxCall, Nonce: 9, Contract: vaultAddr, Fn: "open", Args: []byte{7}}},
		{"duplicate contract", "already deployed", bare},
		{"constructor failure", "constructor of vault failed", func() *Tx {
			ins, change := funded(7, 50)
			return NewDeploy(alice, 10, ins, change, "vault", []byte{1}, 50)
		}()},
		{"no contract", "no contract at", func() *Tx {
			ins, change := funded(8, 50)
			return NewCall(alice, 11, crypto.Address{0xEE}, "open", []byte{7}, ins, change, 50)
		}()},
		{"call failure", "wrong key", func() *Tx {
			ins, change := funded(9, 50)
			return NewCall(alice, 12, vaultAddr, "open", []byte{8}, ins, change, 50)
		}()},
		{"mint to the zero address", "mint output 1 to zero address", &Tx{
			Kind: TxCoinbase, Nonce: 13,
			Outs: []TxOut{{Value: 25, Owner: e.miner.Addr}, {Value: 25}},
		}},
	}

	tip := e.chain.TipState()
	height, now := e.chain.Height()+1, int64(e.now+e.chain.Params().BlockInterval)
	addrs := []crypto.Address{alice.Addr, bob.Addr, mallory.Addr, e.miner.Addr, {}}
	for _, row := range rows {
		for _, layer := range []struct {
			name  string
			fresh func() *State
		}{{"overlay", tip.Child}, {"base", tip.flatten}} {
			st, twin := layer.fresh(), layer.fresh()
			err := ApplyTx(st, e.chain.Registry(), e.chain.Params().ID, height, now, row.tx)
			if !errors.Is(err, ErrTxInvalid) || !strings.Contains(err.Error(), row.err) {
				t.Fatalf("%s on a %s: err = %v, want one containing %q", row.name, layer.name, err, row.err)
			}
			where := row.name + " on a " + layer.name
			var ops []OutPoint
			for _, in := range row.tx.Ins {
				ops = append(ops, in.Prev)
			}
			for i := range uint32(3) {
				ops = append(ops, OutPoint{TxID: row.tx.ID(), Index: i}, OutPoint{TxID: row.tx.ID(), Index: 1<<16 + i})
			}
			for _, op := range ops {
				got, gotOK := st.UTXO(op)
				want, wantOK := twin.UTXO(op)
				if got != want || gotOK != wantOK {
					t.Errorf("%s: UTXO(%s) = %v, %v; the twin reads %v, %v", where, op, got, gotOK, want, wantOK)
				}
			}
			for _, a := range addrs {
				if got, want := ownedMap(st, a), ownedMap(twin, a); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: AppendOwned(%s) holds %d outputs, the twin %d", where, a, len(got), len(want))
				}
			}
			for _, a := range []crypto.Address{vaultAddr, bare.ContractAddr(), row.tx.Contract, row.tx.ContractAddr()} {
				got, gotOK := st.Contract(a)
				want, wantOK := twin.Contract(a)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Contract(%s) = %v, %v; the twin reads %v, %v", where, a, got, gotOK, want, wantOK)
				}
				if got, want := st.Balance(a), twin.Balance(a); got != want {
					t.Errorf("%s: Balance(%s) = %d, the twin reads %d", where, a, got, want)
				}
			}
			if got, want := st.TotalValue(), twin.TotalValue(); got != want {
				t.Errorf("%s: TotalValue = %d, the twin sums %d", where, got, want)
			}
		}
	}
}

// probe is a test contract that records what its call context shows
// before it acts — payouts already queued, whether the clock was read,
// the balance — and then, for "pay", reads the clock and pays its whole
// balance to the caller; "refuse" fails.
type probe struct {
	Payouts int
	Clock   bool
	Balance vm.Amount
}

func (p *probe) Type() string               { return "probe" }
func (p *probe) Init(*vm.Ctx, []byte) error { return nil }
func (p *probe) Clone() vm.Contract         { cp := *p; return &cp }
func (p *probe) Call(ctx *vm.Ctx, fn string, _ []byte) error {
	p.Payouts, p.Clock, p.Balance = len(ctx.Payouts()), ctx.ReadClock(), ctx.Balance()
	switch fn {
	case "pay":
		_ = ctx.Time()
		return ctx.Pay(ctx.Msg.Sender, ctx.Balance())
	case "refuse":
		return errors.New("refused")
	}
	return nil
}

// TestCallContextIsFreshPerCall: every deploy and call runs in one
// scratch context, and none sees what the one before it left there — a
// call after another that read the clock and paid out sees no payout,
// an unread clock and its own balance, and its rejection is not marked
// as a clock read (which would keep it from being parked, ADR-020).
func TestCallContextIsFreshPerCall(t *testing.T) {
	key := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(95).Uint64))
	reg := vm.NewRegistry()
	reg.Register("probe", func() vm.Contract { return &probe{} })
	exec, err := NewExecutor(pruneParams(0, 0), reg, GenesisAlloc{key.Addr: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	st := exec.NewView().TipState().Child()
	var grant OutPoint
	for op := range ownedMap(st, key.Addr) {
		grant = op
	}
	var (
		ctx  vm.Ctx
		sigs crypto.SigTally
	)
	apply := func(tx *Tx) error { return applyTx(st, reg, "prunenet", 1, 77, tx, &sigs, &ctx) }
	rich := NewDeploy(key, 1, []TxIn{{Prev: grant}}, []TxOut{{Value: 9_000, Owner: key.Addr}}, "probe", nil, 1_000)
	poor := NewDeploy(key, 2, []TxIn{{Prev: OutPoint{TxID: rich.ID()}}}, []TxOut{{Value: 8_700, Owner: key.Addr}}, "probe", nil, 300)
	pay := NewCall(key, 3, rich.ContractAddr(), "pay", nil, nil, nil, 0)
	for _, tx := range []*Tx{rich, poor, pay, NewCall(key, 4, poor.ContractAddr(), "look", nil, nil, nil, 0)} {
		if err := apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	if len(ctx.Payouts()) != 0 || ctx.ReadClock() || ctx.Balance() != 300 {
		t.Fatalf("after the second call the context holds %d payouts, clock read %v, balance %d; want 0, false, 300",
			len(ctx.Payouts()), ctx.ReadClock(), ctx.Balance())
	}
	for addr, want := range map[crypto.Address]probe{rich.ContractAddr(): {Balance: 1_000}, poor.ContractAddr(): {Balance: 300}} {
		if c, _ := st.Contract(addr); *c.(*probe) != want {
			t.Fatalf("contract %s saw %+v, want %+v", addr, *c.(*probe), want)
		}
	}
	if out, ok := st.UTXO(OutPoint{TxID: pay.ID(), Index: 1 << 16}); !ok || out.Value != 1_000 {
		t.Fatalf("the paying call's payout reads %v, %v; want 1000", out, ok)
	}
	if err := apply(NewCall(key, 5, rich.ContractAddr(), "pay", nil, nil, nil, 0)); err != nil { // reads the clock
		t.Fatal(err)
	}
	err = apply(NewCall(key, 6, poor.ContractAddr(), "refuse", nil, nil, nil, 0))
	var rej *txRejection
	if !errors.As(err, &rej) || rej.clock {
		t.Fatalf("a refusing call after one that read the clock: %v; want a rejection without a clock read", err)
	}
}

// TestIDFormNeverApplied: a call decoded from its id form has the
// call's id and a valid signature, so a block that carries it in the
// call's place keeps its TxRoot and its hash. ApplyTx refuses it all
// the same — the call would run without its arguments — and so does a
// network that receives that block. The full form decodes to the same
// id and its arguments.
func TestIDFormNeverApplied(t *testing.T) {
	key := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(96).Uint64))
	reg := vm.NewRegistry()
	reg.Register("probe", func() vm.Contract { return &probe{} })
	execs := [2]*Executor{}
	for i := range execs {
		exec, err := NewExecutor(pruneParams(0, 0), reg, GenesisAlloc{key.Addr: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		execs[i] = exec
	}
	v, relayed := execs[0].NewView(), execs[1].NewView()
	var grant OutPoint
	for op := range ownedMap(v.TipState(), key.Addr) {
		grant = op
	}
	dep := NewDeploy(key, 1, []TxIn{{Prev: grant}}, []TxOut{{Value: 9_000, Owner: key.Addr}}, "probe", nil, 1_000)
	call := NewCall(key, 2, dep.ContractAddr(), "look", make([]byte, 100), nil, nil, 0) // probe ignores its arguments
	idForm, err := DecodeTx(call.AppendIDForm(nil))
	if err != nil || len(idForm.Args) != crypto.HashSize || idForm.ID() != call.ID() || !idForm.VerifySig() {
		t.Fatalf("the id form does not prove the call: %v", err)
	}
	if full, err := DecodeTx(call.Encode()); err != nil || full.ID() != call.ID() || !bytes.Equal(full.Args, call.Args) {
		t.Fatalf("the full form does not round-trip: %v", err)
	}
	if _, err := relayed.AddBlock(mineOn(t, v, key.Addr, 10, dep)); err != nil {
		t.Fatal(err)
	}
	st := v.TipState().Child()
	if err := ApplyTx(st, reg, "prunenet", 2, 20, idForm); !errors.Is(err, ErrTxInvalid) || !strings.Contains(err.Error(), "id form") {
		t.Fatalf("ApplyTx of the id form: %v", err)
	}
	b := mineOn(t, v, key.Addr, 20, call)
	swapped := NewBlock(*b.Header, []*Tx{b.Txs[0], idForm})
	if swapped.Hash() != b.Hash() {
		t.Fatal("swapping the call for its id form changed the block's hash")
	}
	if _, err := relayed.AddBlock(swapped); err == nil || !strings.Contains(err.Error(), "id form") || relayed.Tip().Hash() == b.Hash() {
		t.Fatalf("a block carrying an id form was adopted: %v", err)
	}
}

// TestApplyTxRefusesFieldsItsKindNeverReads: each kind of transaction
// is refused when it carries a field only another kind reads — bytes
// that a block would carry and its id commit to, for nothing. Per kind, the
// genuine transaction applies, and each row sets one foreign field on
// it, signed afresh.
func TestApplyTxRefusesFieldsItsKindNeverReads(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	alice, bob := e.keys["alice"], e.keys["bob"]
	bare := NewDeploy(alice, 1, nil, nil, "vault", vaultParams{Recipient: bob.Addr, Key: 7}.Encode(), 0)
	e.mine(bare)
	op, o := e.utxoOf("alice", 10_000)
	junk := bytes.Repeat([]byte{0xAB}, 4<<10)
	// signed builds a transaction afresh on each call, edit setting a
	// foreign field before it is signed.
	signed := func(tx *Tx) func(edit func(*Tx)) *Tx {
		return func(edit func(*Tx)) *Tx {
			s := &signedTx{tx: Tx{Kind: tx.Kind, Nonce: tx.Nonce, Ins: tx.Ins, Outs: tx.Outs, ContractType: tx.ContractType, Params: tx.Params, Contract: tx.Contract, Fn: tx.Fn, Args: tx.Args}}
			edit(&s.tx)
			return s.sign(alice)
		}
	}
	for _, kind := range []struct {
		name, err string
		build     func(edit func(*Tx)) *Tx
		rows      map[string]func(*Tx)
	}{
		{"transfer", "transfer carries contract fields", signed(&Tx{Kind: TxTransfer, Nonce: 2, Ins: []TxIn{{Prev: op}}, Outs: []TxOut{{Value: o.Value, Owner: bob.Addr}}}),
			map[string]func(*Tx){
				"4 KiB of params": func(tx *Tx) { tx.Params = junk },
				"4 KiB of args":   func(tx *Tx) { tx.Args = junk },
				"a contract":      func(tx *Tx) { tx.Contract = bare.ContractAddr() },
				"a contract type": func(tx *Tx) { tx.ContractType = "vault" },
				"a function":      func(tx *Tx) { tx.Fn = "open" },
			}},
		{"deploy", "deploy carries call fields", signed(&Tx{Kind: TxDeploy, Nonce: 3, ContractType: "vault", Params: vaultParams{Recipient: bob.Addr, Key: 8}.Encode()}),
			map[string]func(*Tx){
				"a function":    func(tx *Tx) { tx.Fn = "open" },
				"4 KiB of args": func(tx *Tx) { tx.Args = junk },
				"a contract":    func(tx *Tx) { tx.Contract = bare.ContractAddr() },
			}},
		{"call", "call carries deploy fields", signed(&Tx{Kind: TxCall, Nonce: 4, Contract: bare.ContractAddr(), Fn: "open", Args: []byte{7}}),
			map[string]func(*Tx){
				"a contract type": func(tx *Tx) { tx.ContractType = "vault" },
				"4 KiB of params": func(tx *Tx) { tx.Params = junk },
			}},
	} {
		apply := func(tx *Tx) error {
			return ApplyTx(e.chain.TipState().Child(), e.chain.Registry(), e.chain.Params().ID, e.chain.Height()+1, int64(e.now), tx)
		}
		if err := apply(kind.build(func(*Tx) {})); err != nil {
			t.Fatalf("the genuine %s: %v", kind.name, err)
		}
		for name, edit := range kind.rows {
			if err := apply(kind.build(edit)); !errors.Is(err, ErrTxInvalid) || !strings.Contains(err.Error(), kind.err) {
				t.Errorf("a %s carrying %s: %v, want an error containing %q", kind.name, name, err, kind.err)
			}
		}
	}
}
