package spv

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/merkle"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/wire"
)

// sink is a contract whose every call succeeds, whatever it carries.
type sink struct{}

func (sink) Type() string                       { return "sink" }
func (sink) Init(*vm.Ctx, []byte) error         { return nil }
func (sink) Call(*vm.Ctx, string, []byte) error { return nil }
func (s sink) Clone() vm.Contract               { return s }

// callEvidence is evidence, 6 deep, of a call carrying 1 KB of
// arguments, on a chain with the fixture's genesis.
func callEvidence(t fixtureTB) (*chain.Tx, *Evidence) {
	t.Helper()
	rng := sim.NewRNG(42)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	params := chain.DefaultParams("validated")
	params.DifficultyBits = 8
	reg := vm.NewRegistry()
	reg.Register("sink", func() vm.Contract { return sink{} })
	exec, err := chain.NewExecutor(params, reg, chain.GenesisAlloc{key.Addr: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{view: exec.NewView(), key: key, rng: rng}
	dep := chain.NewDeploy(key, 1, nil, nil, "sink", nil, 0)
	call := chain.NewCall(key, 2, dep.ContractAddr(), "note", bytes.Repeat([]byte{7}, 1<<10), nil, nil, 0)
	f.mine(dep)
	f.mine(call)
	for range 6 {
		f.mine()
	}
	ev, err := Build(f.view, genesis(f.view).Hash(), call.ID(), 6)
	if err != nil {
		t.Fatal(err)
	}
	return call, ev
}

// TestEvidenceCarriesIDForm: evidence of a call carries it in its id
// form — the arguments' digest, not the arguments — and proves the
// call's id, target and function. The same evidence carrying the call
// whole would prove the same transaction, and is refused: evidence has
// one form.
func TestEvidenceCarriesIDForm(t *testing.T) {
	call, ev := callEvidence(t)
	checkpoint := genesis(newFixture(t, 0).view).Header // the genesis both chains share
	dec, err := Decode(ev.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.TxBytes, call.AppendIDForm(nil)) || len(dec.TxBytes) != call.EncodedLen()-len(call.Args)+crypto.HashSize {
		t.Fatalf("evidence carries %d transaction bytes, want the %d of the id form", len(dec.TxBytes), call.IDFormLen())
	}
	tx, err := dec.Verify(checkpoint, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() != call.ID() || tx.Contract != call.Contract || tx.Fn != call.Fn || crypto.Hash(tx.Args) != crypto.Sum(call.Args) {
		t.Fatalf("proved %s: %s.%s, want the call %s", tx.ID(), tx.Contract, tx.Fn, call.ID())
	}
	dec.TxBytes = call.Encode()
	if _, err := dec.Verify(checkpoint, 6); err == nil || !strings.Contains(err.Error(), "not the id form") {
		t.Fatalf("evidence carrying the whole call: %v", err)
	}
}

// oracleVerify is the verifier before Verify read evidence where it
// lies: Decode into a header array, the chain the validator wants, then
// the checks over that array. FuzzVerify holds Verify to it. It
// recomputes the id on its own, as the hash of the id form's body: the
// transaction bytes but for the signature.
func oracleVerify(b []byte, want chain.ID, checkpoint *chain.Header, minDepth int) (*chain.Tx, error) {
	e, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if e.ChainID != want {
		return nil, evErr("evidence from chain %s, want %s", e.ChainID, want)
	}
	if e.ChainID != checkpoint.ChainID {
		return nil, evErr("evidence for chain %q, checkpoint for %q", e.ChainID, checkpoint.ChainID)
	}
	if len(e.Headers) == 0 {
		return nil, evErr("no headers")
	}
	prevHash := checkpoint.Hash()
	prevHeight := checkpoint.Height
	for i, h := range e.Headers {
		if h.ChainID != e.ChainID {
			return nil, evErr("header %d from chain %q", i, h.ChainID)
		}
		if h.Parent != prevHash {
			return nil, evErr("header %d does not link to its parent", i)
		}
		if h.Height != prevHeight+1 {
			return nil, evErr("header %d height %d, want %d", i, h.Height, prevHeight+1)
		}
		hash := h.Hash()
		if !chain.MeetsTarget(hash, h.Bits) {
			return nil, evErr("header %d fails proof of work", i)
		}
		prevHash = hash
		prevHeight = h.Height
	}
	if e.TxBlockOffset < 0 || e.TxBlockOffset >= len(e.Headers) {
		return nil, evErr("tx block offset %d out of range", e.TxBlockOffset)
	}
	depth := len(e.Headers) - 1 - e.TxBlockOffset
	if depth < minDepth {
		return nil, evErr("tx buried %d deep, need %d", depth, minDepth)
	}
	tx, err := chain.DecodeTx(e.TxBytes)
	if err != nil {
		return nil, evErr("tx bytes: %v", err)
	}
	if !bytes.Equal(tx.AppendIDForm(nil), e.TxBytes) {
		return nil, evErr("tx bytes carry the call's arguments, not the id form")
	}
	id := crypto.Sum(e.TxBytes[:len(e.TxBytes)-tx.Sig.EncodedLen()])
	if e.Proof.Leaf != merkle.LeafHash(id[:]) || !e.Proof.Verify(e.Headers[e.TxBlockOffset].TxRoot) {
		return nil, evErr("merkle proof fails for tx %s", id)
	}
	return tx, nil
}

// FuzzVerify: Verify never panics, accepts only bytes Decode accepts
// and re-encodes to themselves, and returns what the oracle returns —
// the same error, or the same transaction. The seeds are the golden
// vectors, and real evidence from a chain whose genesis is the
// checkpoint — of a transfer, and of a call whose id form digests its
// arguments, that call also carried whole — with each of its bits
// flipped in turn.
func FuzzVerify(f *testing.F) {
	fx := newFixtureAny(f, 7)
	checkpoint := genesis(fx.view).Header
	for _, v := range goldenEvidence(f) {
		f.Add(unhex(f, v.Encode), uint8(0))
	}
	ev, err := Build(fx.view, genesis(fx.view).Hash(), fx.tx.ID(), 0)
	if err != nil {
		f.Fatal(err)
	}
	call, callEv := callEvidence(f)
	if callEv.Headers[0].Parent != checkpoint.Hash() {
		f.Fatal("the call's chain has another genesis")
	}
	for _, enc := range [][]byte{ev.Encode(), callEv.Encode()} {
		for _, d := range []uint8{0, 6, 7, 8} {
			f.Add(enc, d)
		}
		for i := range enc { // every one-bit corruption, so plain go test reaches every check
			bad := bytes.Clone(enc)
			bad[i] ^= 1
			f.Add(bad, uint8(6))
		}
	}
	callEv.TxBytes = call.Encode()
	f.Add(callEv.Encode(), uint8(6))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, b []byte, minDepth uint8) {
		claimed := wire.NewReader(b) // wanting the chain b claims reaches the checkpoint's check
		for _, want := range []chain.ID{checkpoint.ChainID, chain.ID(claimed.String())} {
			tx, err := Verify(b, want, checkpoint, int(minDepth))
			otx, oerr := oracleVerify(b, want, checkpoint, int(minDepth))
			switch {
			case (err == nil) != (oerr == nil):
				t.Fatalf("Verify error %v, oracle error %v", err, oerr)
			case err != nil && err.Error() != oerr.Error():
				t.Fatalf("Verify error %q, oracle error %q", err, oerr)
			case err == nil && tx.ID() != otx.ID():
				t.Fatalf("Verify proved tx %s, oracle %s", tx.ID(), otx.ID())
			}
			if dec, _ := Decode(b); err == nil && !bytes.Equal(dec.Encode(), b) {
				t.Fatalf("accepted bytes re-encode differently:\n in  %x\n out %x", b, dec.Encode())
			}
		}
	})
}
