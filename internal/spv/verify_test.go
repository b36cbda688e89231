package spv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// lies and before headers travelled as links: it expands the links
// itself — each header after the first is the one before it with the
// parent set to that one's hash, the height one higher, and the time,
// tx root and nonce read from the link's fixed place in b — then runs
// the checks over that header list, every header checked against its
// parent and the checkpoint's difficulty. Decode must expand the links
// to the same headers. FuzzVerify holds Verify to it. It recomputes the
// id on its own, as the hash of the id form's body: the transaction
// bytes but for the signature.
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
	headers := []chain.Header{*e.Headers[0]}
	links := b[4+len(e.ChainID)+4+4+e.Headers[0].EncodedLen():]
	for i := 1; i < len(e.Headers); i++ {
		h := headers[i-1]
		h.Parent = crypto.Sum(headers[i-1].Encode())
		h.Height++
		link := links[(i-1)*48 : i*48]
		h.Time = sim.Time(binary.BigEndian.Uint64(link))
		h.TxRoot = crypto.Hash(link[8:40])
		h.Nonce = binary.BigEndian.Uint64(link[40:])
		if h != *e.Headers[i] {
			return nil, fmt.Errorf("oracle: Decode expanded header %d as %+v, want %+v", i, *e.Headers[i], h)
		}
		headers = append(headers, h)
	}
	prevHash := checkpoint.Hash()
	prevHeight := checkpoint.Height
	for i, h := range headers {
		if h.ChainID != e.ChainID {
			return nil, evErr("header %d from chain %q", i, h.ChainID)
		}
		if h.Parent != prevHash {
			return nil, evErr("header %d does not link to the checkpoint", i)
		}
		if h.Height != prevHeight+1 {
			return nil, evErr("header %d height %d, want %d", i, h.Height, prevHeight+1)
		}
		if h.Bits != checkpoint.Bits {
			return nil, evErr("header %d difficulty %d, want the checkpoint's %d", i, h.Bits, checkpoint.Bits)
		}
		hash := h.Hash()
		if !chain.MeetsTarget(hash, h.Bits) {
			return nil, evErr("header %d fails proof of work", i)
		}
		prevHash = hash
		prevHeight = h.Height
	}
	if e.TxBlockOffset < 0 || e.TxBlockOffset >= len(headers) {
		return nil, evErr("tx block offset %d out of range", e.TxBlockOffset)
	}
	depth := len(headers) - 1 - e.TxBlockOffset
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
	if e.Proof.Leaf != merkle.LeafHash(id[:]) || !e.Proof.Verify(headers[e.TxBlockOffset].TxRoot) {
		return nil, evErr("merkle proof fails for tx %s", id)
	}
	return tx, nil
}

// FuzzVerify: Verify never panics, accepts only bytes Decode accepts
// and re-encodes to themselves, and returns what the oracle returns —
// the same error, or the same transaction. The seeds are the golden
// vectors, and real evidence from a chain whose genesis is the
// checkpoint — of a transfer, 38 headers long like evidence from a
// checkpoint core.DefaultStableDepth back, and of a call whose id form
// digests its arguments, that call also carried whole — with the low
// bit of each byte flipped in turn, so every link is corrupted in every
// field.
func FuzzVerify(f *testing.F) {
	fx := newFixtureAny(f, 37)
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

// TestZeroDifficultyForgeryRejected: a header's own difficulty cannot
// lower the bar its proof of work meets. Seven headers of difficulty 0
// on the fixture's genesis, the first committing to a call that was
// never mined, prove that call 6 deep unless the first header must carry
// the checkpoint's difficulty, which the links then inherit — and such
// evidence would let anyone forge SCw's authorize_redeem.
func TestZeroDifficultyForgeryRejected(t *testing.T) {
	f := newFixture(t, 0)
	cp := genesis(f.view).Header
	call := chain.NewCall(f.key, 7, crypto.Address{1}, "authorize_redeem", nil, nil, nil, 0)
	forged := chain.NewBlock(chain.Header{ChainID: cp.ChainID, Parent: cp.Hash(), Height: 1, Time: 10 * sim.Second}, []*chain.Tx{call})
	proof, err := forged.ProveTx(0)
	if err != nil {
		t.Fatal(err)
	}
	ev := &Evidence{ChainID: cp.ChainID, Headers: []*chain.Header{forged.Header}, Proof: proof, TxBytes: call.AppendIDForm(nil)}
	for len(ev.Headers) < 7 {
		prev := ev.Headers[len(ev.Headers)-1]
		ev.Headers = append(ev.Headers, &chain.Header{ChainID: cp.ChainID, Parent: prev.Hash(), Height: prev.Height + 1, Time: prev.Time + 10*sim.Second})
	}
	_, err = ev.Verify(cp, 6)
	if want := "header 0 difficulty 0, want the checkpoint's 8"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("zero-difficulty headers proving an unmined call: %v, want an error naming %q", err, want)
	}
}

// TestVerifyRejectsMutatedHeaderChain mutates genuine evidence where it
// lies, in its links, and each row must be refused for the reason it
// names: a link can only be rebuilt onto the header before it, so one
// spliced in from a sibling fork, dropped or inserted fails its proof of
// work at its index.
func TestVerifyRejectsMutatedHeaderChain(t *testing.T) {
	f := newFixture(t, 8)
	cp := genesis(f.view)
	ev, err := Build(f.view, cp.Hash(), f.tx.ID(), 6)
	if err != nil {
		t.Fatal(err)
	}
	genuine := ev.Encode()
	if _, err := Verify(genuine, ev.ChainID, cp.Header, 6); err != nil {
		t.Fatal(err)
	}
	// A sibling fork of the same height, mined on another view.
	fork := f.view.Executor().NewView()
	for fork.Height() < f.view.Height() {
		b, _, _ := fork.BuildBlock(f.key.Addr, sim.Time(fork.Height()+1)*7*sim.Second, nil)
		b.Header.Seal(f.rng.Uint64())
		if _, err := fork.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	siblings, _ := fork.HeadersFrom(cp.Hash())
	sibling := (&Evidence{ChainID: ev.ChainID, Headers: siblings, Proof: ev.Proof}).Encode()

	countAt := 4 + len(ev.ChainID)
	linkAt := func(i int) int { return countAt + 4 + 4 + ev.Headers[0].EncodedLen() + (i-1)*linkLen }
	edit := func(count int, from, to int, with []byte) []byte {
		b := append(append(bytes.Clone(genuine[:from]), with...), genuine[to:]...)
		binary.BigEndian.PutUint32(b[countAt:], uint32(len(ev.Headers)+count))
		return b
	}
	const k = 3
	for _, row := range []struct {
		name, want string
		b          []byte
	}{
		{"a sibling fork's link spliced in", "header 3 fails proof of work", edit(0, linkAt(k), linkAt(k+1), sibling[linkAt(k):linkAt(k+1)])},
		{"a link dropped", "header 3 fails proof of work", edit(-1, linkAt(k), linkAt(k+1), nil)},
		{"a link inserted", "header 4 fails proof of work", edit(+1, linkAt(k+1), linkAt(k+1), genuine[linkAt(k):linkAt(k+1)])},
		{"a difficulty other than the checkpoint's", "header 0 difficulty 7, want the checkpoint's 8", edit(0, linkAt(1)-9, linkAt(1)-8, []byte{7})},
		{"a link cut short", "truncated", edit(0, linkAt(len(ev.Headers))-20, linkAt(len(ev.Headers)), nil)},
	} {
		_, err := Verify(row.b, ev.ChainID, cp.Header, 6)
		if !errors.Is(err, ErrBadEvidence) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: %v, want an error naming %q", row.name, err, row.want)
		}
		if _, oerr := oracleVerify(row.b, ev.ChainID, cp.Header, 6); fmt.Sprint(oerr) != fmt.Sprint(err) {
			t.Errorf("%s: the oracle says %v", row.name, oerr)
		}
	}
}
