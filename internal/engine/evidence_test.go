package engine

import (
	"bytes"
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/sim"
	"repro/internal/spv"
)

// TestEvidenceRoundTripsInRunOneWorlds: every SPV evidence blob an
// AC3WN world puts on its chains — redeem and refund evidence of SCw's
// decision, and the deploy evidence inside authorize_redeem's list —
// decodes to headers its chain holds, and re-encodes to the very bytes
// it was found as. Decode rebuilds every header after the first from
// its link (ADR-027), so a header it restored wrongly would hash to a
// block nobody mined.
func TestEvidenceRoundTripsInRunOneWorlds(t *testing.T) {
	blobs := 0
	for _, sc := range []Scenario{ScenarioCommit, ScenarioAbort} {
		lab, err := RunOne(11, Ring(4, 3, []chain.ID{"a", "b"}), ProtoAC3WN, AC2T{Witness: "witness", Depth: 2}, sc, 0, 2*sim.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range lab.World.Chains() {
			view := lab.World.View(id)
			for height := range view.Height() + 1 {
				b, _ := view.CanonicalAt(height)
				for _, tx := range b.Txs {
					if tx.Kind != chain.TxCall {
						continue
					}
					found := [][]byte{tx.Args}
					if list, err := contracts.DecodeEvidenceList(tx.Args); err == nil {
						found = append(found, list...)
					}
					for _, raw := range found {
						ev, err := spv.Decode(raw)
						if err != nil || len(ev.Headers) == 0 {
							continue
						}
						blobs++
						if !bytes.Equal(ev.Encode(), raw) {
							t.Fatalf("%s: evidence in %s.%s on %s re-encodes differently", sc, tx.Contract, tx.Fn, id)
						}
						for i, h := range ev.Headers {
							if _, ok := lab.World.View(ev.ChainID).Block(h.Hash()); !ok {
								t.Fatalf("%s: header %d of evidence in %s.%s on %s is no block of %s", sc, i, tx.Contract, tx.Fn, id, ev.ChainID)
							}
						}
					}
				}
			}
		}
	}
	if blobs < 8 { // three redeems and three authorize_redeem deploy proofs, two refunds
		t.Fatalf("found %d evidence blobs; the two worlds carry 8", blobs)
	}
	t.Logf("%d evidence blobs round-trip", blobs)
}
