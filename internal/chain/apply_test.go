package chain

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/vm"
)

// TestApplyTxIsAllOrNothing applies one transaction per rejection path
// of ApplyTx and compares the state it was refused on with a twin that
// never saw it, through every read a caller has: UTXO, UTXOsOwnedBy,
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
				if got, want := st.UTXOsOwnedBy(a), twin.UTXOsOwnedBy(a); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: UTXOsOwnedBy(%s) holds %d outputs, the twin %d", where, a, len(got), len(want))
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
