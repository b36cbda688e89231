package contracts

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/spv"
)

// TestRedeemRejectsMutatedIDFormEvidence: redeem evidence carries SCw's
// authorize_redeem in its id form — the per-edge deploy evidence it
// carried is a digest now — and PermissionlessSC still accepts nothing
// but that call, proven d deep on its own chain. Each row mutates the
// genuine evidence, or presents genuine evidence of another call, and
// must be refused for the reason it names; the genuine evidence pays.
// (Refund evidence at a redeem: TestPermissionlessRejectsWrongFunctionEvidence.)
func TestRedeemRejectsMutatedIDFormEvidence(t *testing.T) {
	f := newAC3WNFixture(t)
	w := f.w
	other := setUpAC3WN(t, w, f.alice, f.bob) // a second AC2T in the same world
	authTx := w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, f.deployEvidence(t), true)
	otherAuth := w.call("witness", f.bob, other.scwAddr, FnAuthorizeRedeem, other.deployEvidence(t), true)
	w.mineEmpty("witness", f.witnessDepth)
	genuine := w.evidenceFor("witness", authTx.ID(), f.witnessDepth)
	ev, err := spv.Decode(genuine)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.TxBytes) != authTx.IDFormLen() || authTx.IDFormLen() >= authTx.EncodedLen() {
		t.Fatalf("redeem evidence carries %d transaction bytes, want the id form's %d (the full call is %d)",
			len(ev.TxBytes), authTx.IDFormLen(), authTx.EncodedLen())
	}

	// A sibling fork of the witness chain from the checkpoint, as long
	// as the canonical one: another view of the same executor.
	fork := w.chains["witness"].Executor().NewView()
	for fork.Height() < w.chains["witness"].Height() {
		w.now += 10 * sim.Second
		b, built, _ := fork.BuildBlock(f.alice.Addr, w.now, nil)
		b.Header.Seal(w.rng.Uint64())
		if _, err := fork.AddMinedBlock(b, built); err != nil {
			t.Fatal(err)
		}
	}
	siblings, _ := fork.HeadersFrom(genesis(fork).Hash())

	// mutate re-encodes the genuine evidence after edit changes it.
	mutate := func(edit func(e *spv.Evidence)) []byte {
		e, err := spv.Decode(bytes.Clone(genuine))
		if err != nil {
			t.Fatal(err)
		}
		edit(e)
		return e.Encode()
	}
	// inTx overwrites the id form's bytes at old's first occurrence.
	inTx := func(old, new []byte) func(*spv.Evidence) {
		return func(e *spv.Evidence) {
			at := bytes.Index(e.TxBytes, old)
			if at < 0 || len(old) != len(new) {
				t.Fatalf("%x not in the id form", old)
			}
			copy(e.TxBytes[at:], new)
		}
	}
	digest := crypto.Sum(authTx.Args)
	var flipped crypto.Hash
	copy(flipped[:], digest[:])
	flipped[0] ^= 1
	for _, row := range []struct {
		name, want string
		ev         []byte
	}{
		{"altered digest", "merkle proof fails", mutate(inTx(digest[:], flipped[:]))},
		{"altered target", "merkle proof fails", mutate(inTx(f.scwAddr[:], other.scwAddr[:]))},
		{"altered function", "merkle proof fails", mutate(inTx([]byte(FnAuthorizeRedeem), []byte(FnAuthorizeRefund)))},
		{"arguments carried whole", "not the id form", mutate(func(e *spv.Evidence) { e.TxBytes = authTx.Encode() })},
		{"another AC2T's authorize_redeem", "not authorize_redeem on the agreed SCw", w.evidenceFor("witness", otherAuth.ID(), f.witnessDepth)},
		{"header chain from a sibling fork", "merkle proof fails", mutate(func(e *spv.Evidence) { e.Headers = siblings })},
		{"a sibling fork's headers past the call's block", "fails proof of work", mutate(func(e *spv.Evidence) {
			copy(e.Headers[e.TxBlockOffset+1:], siblings[e.TxBlockOffset+1:])
		})},
		{"burial shallower than d", "buried 1 deep, need 2", mutate(func(e *spv.Evidence) { e.Headers = e.Headers[:e.TxBlockOffset+f.witnessDepth] })},
	} {
		sc := w.contractState("btc", f.sc1Addr).(*PermissionlessSC)
		if err := sc.isRedeemable(nil, row.ev); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: %v, want an error naming %q", row.name, err, row.want)
		}
		w.call("btc", f.bob, f.sc1Addr, FnRedeem, row.ev, false)
	}
	w.call("btc", f.bob, f.sc1Addr, FnRedeem, genuine, true)
}
