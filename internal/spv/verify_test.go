package spv

import (
	"bytes"
	"testing"

	"repro/internal/chain"
	"repro/internal/merkle"
	"repro/internal/wire"
)

// oracleVerify is the verifier before Verify read evidence where it
// lies: Decode into a header array, the chain the validator wants, then
// the checks over that array. FuzzVerify holds Verify to it.
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
	id := tx.ID()
	if e.Proof.Leaf != merkle.LeafHash(id[:]) || !e.Proof.Verify(e.Headers[e.TxBlockOffset].TxRoot) {
		return nil, evErr("merkle proof fails for tx %s", id)
	}
	return tx, nil
}

// FuzzVerify: Verify never panics, accepts only bytes Decode accepts
// and re-encodes to themselves, and returns what the oracle returns —
// the same error, or the same transaction. The seeds are the golden
// vectors, and real evidence from a chain whose genesis is the
// checkpoint with each of its bits flipped in turn.
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
	enc := ev.Encode()
	for _, d := range []uint8{0, 6, 7, 8} {
		f.Add(enc, d)
	}
	for i := range enc { // every one-bit corruption, so plain go test reaches every check
		bad := bytes.Clone(enc)
		bad[i] ^= 1
		f.Add(bad, uint8(6))
	}
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
