package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// multisig is ms(D) over digest by keys, each signing with
// MultiSig.Add.
func multisig(digest crypto.Hash, keys ...*crypto.KeyPair) *crypto.MultiSig {
	ms := crypto.NewMultiSig(digest)
	for _, k := range keys {
		ms.Add(k)
	}
	return ms
}

// participantKeys lists the parties' signing keys, in order.
func participantKeys(ps []*xchain.Participant) []*crypto.KeyPair {
	keys := make([]*crypto.KeyPair, len(ps))
	for i, p := range ps {
		keys[i] = p.Key
	}
	return keys
}

// TestAC3WNRejectsSCwWithForeignMultisig: a participant accepts SCw
// only if it carries the ms(GD) it took part in — the id it computes
// from the graph it signed and the participants' addresses. An SCw over
// a different signer set, or over the same swaps at a different
// timestamp, passes the contract's own constructor (the multisig is
// complete and valid for what it signs) but must condition nobody's
// assets: every participant rejects it, pushes authorize_refund, and
// the AC2T aborts with nothing locked.
func TestAC3WNRejectsSCwWithForeignMultisig(t *testing.T) {
	cases := []struct {
		name string
		// forge stands in for Start's signGraph: it leaves in r.ms (or
		// publishes itself) what a dishonest initiator would.
		forge  func(t *testing.T, r *Run, mallory *crypto.KeyPair)
		reason string
	}{
		{
			name: "different signer set",
			forge: func(t *testing.T, r *Run, mallory *crypto.KeyPair) {
				keys := append(participantKeys(r.cfg.Participants), mallory)
				r.ms = multisig(r.cfg.Graph.Digest(), keys...)
			},
			reason: "multisig mismatch",
		},
		{
			name: "different graph timestamp",
			forge: func(t *testing.T, r *Run, _ *crypto.KeyPair) {
				agreed := r.cfg.Graph
				other, err := graph.New(agreed.Timestamp+1, agreed.Edges...)
				if err != nil {
					t.Fatal(err)
				}
				// The constructor checks the multisig against the graph
				// it is published with, so the forger has to publish the
				// other graph whole; verifySCw then stops at the
				// timestamp, one line before the multisig id.
				r.cfg.Graph, r.ms = other, multisig(other.Digest(), participantKeys(r.cfg.Participants)...)
				r.deploySCw(r.cfg.Initiator)
				r.cfg.Graph = agreed
			},
			reason: "graph mismatch",
		},
		{
			name: "tip-level deploy evidence",
			forge: func(t *testing.T, r *Run, _ *crypto.KeyPair) {
				// Checkpoints that accept deploy evidence at depth 0
				// would let SCw reach RDauth on contracts a reorg can
				// still drop.
				r.ms = multisig(r.cfg.Graph.Digest(), participantKeys(r.cfg.Participants)...)
				agreed := r.cfg.AssetDepth
				r.cfg.AssetDepth = 0
				r.deploySCw(r.cfg.Initiator)
				r.cfg.AssetDepth = agreed
			},
			reason: "checkpoint bitcoin evidence depth 0, agreed",
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, alice, bob := twoPartyWorld(t, 520+uint64(i))
			r := twoPartyRun(t, w, alice, bob, 0)
			tc.forge(t, r, crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(9).Uint64)))
			r.Runtime.Start()
			w.RunUntil(60 * sim.Minute)
			w.StopMining()
			w.RunFor(sim.Minute)

			var rejected, refunds int
			for _, ev := range r.Events() {
				if strings.Contains(ev.Label, "rejects SCw: "+tc.reason) {
					rejected++
				}
				if strings.Contains(ev.Label, "authorize_refund submitted by") {
					refunds++
				}
			}
			if rejected != 2 {
				t.Fatalf("%d participants rejected SCw for %q, want 2 (events: %v)", rejected, tc.reason, r.Events())
			}
			if refunds == 0 {
				t.Fatalf("no participant pushed authorize_refund (events: %v)", r.Events())
			}
			ct, ok := w.View("witness").TipState().Contract(r.scwAddr)
			if !ok || ct.(*contracts.WitnessSC).State != contracts.WitnessRefundAuthorized {
				t.Fatalf("forged SCw not driven to RFauth: %+v", ct)
			}
			// A participant that rejects SCw still observes the decision
			// it pushed, so the run records it though nobody accepted.
			if r.DecidedAt == 0 || r.DecidedOutcome != contracts.WitnessRefundAuthorized {
				t.Fatalf("run did not record the abort: DecidedAt %d, DecidedOutcome %s", r.DecidedAt, r.DecidedOutcome)
			}
			out := r.Grade()
			if !out.Aborted() || out.AtomicityViolated() {
				t.Fatalf("not a clean abort: %+v", out.Edges)
			}
			for _, e := range out.Edges {
				if e.Deployed {
					t.Fatalf("an asset contract was conditioned on the forged SCw: %+v", e)
				}
			}
			if got := ownedTotal(w, "bitcoin", alice.Addr()); got != 1_000_000 {
				t.Fatalf("alice btc = %d, want untouched", got)
			}
			if got := ownedTotal(w, "ethereum", bob.Addr()); got != 1_000_000 {
				t.Fatalf("bob eth = %d, want untouched", got)
			}
		})
	}
}

// TestVerifySCwMultisigID checks the id comparison on its own: with
// graph, depth and checkpoints as agreed, SCw is accepted exactly when
// its MSID is the one the participants' addresses give over the agreed
// digest.
func TestVerifySCwMultisigID(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 530)
	r := twoPartyRun(t, w, alice, bob, 0)
	g := r.cfg.Graph
	addrs := []crypto.Address{bob.Addr(), alice.Addr()}
	scw := func(msid crypto.Hash) *contracts.WitnessSC {
		return &contracts.WitnessSC{Edges: g.Edges, Timestamp: g.Timestamp, WitnessDepth: r.cfg.WitnessDepth, MSID: msid}
	}
	if err := r.verifySCw(bob, scw(crypto.MultiSigID(g.Digest(), addrs))); err != nil {
		t.Fatalf("genuine ms(GD) rejected: %v", err)
	}
	later, err := graph.New(g.Timestamp+1, g.Edges...)
	if err != nil {
		t.Fatal(err)
	}
	mallory := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(9).Uint64))
	for name, msid := range map[string]crypto.Hash{
		"other timestamp": crypto.MultiSigID(later.Digest(), addrs),
		"extra signer":    crypto.MultiSigID(g.Digest(), append(addrs, mallory.Addr)),
		"missing signer":  crypto.MultiSigID(g.Digest(), addrs[:1]),
		"zero":            {},
	} {
		if err := r.verifySCw(bob, scw(msid)); err == nil || err.Error() != "multisig mismatch" {
			t.Errorf("%s: verifySCw = %v, want multisig mismatch", name, err)
		}
	}
}

// TestAC3WNPresignedMultisig (ADR-021): in a world whose graph signatures
// were written ahead of need, signGraph takes them — the bytes
// MultiSig.Add gives — and SCw's constructor reads their verdicts instead of
// verifying them again. An initiator that publishes other bytes for a
// pair the world presigned has them verified inline, and no miner admits
// that SCw.
func TestAC3WNPresignedMultisig(t *testing.T) {
	for _, forge := range []bool{false, true} {
		t.Run(map[bool]string{false: "presigned bytes", true: "other bytes"}[forge], func(t *testing.T) {
			ck := crypto.NewSigChecker(1)
			defer ck.Close()
			b := xchain.NewBuilderOn(sim.New(540), ck)
			alice, bob := b.Participant("alice"), b.Participant("bob")
			for _, id := range []chain.ID{"bitcoin", "ethereum", "witness"} {
				b.Chain(xchain.DefaultChainSpec(id))
			}
			b.Fund(alice, "bitcoin", 1_000_000)
			b.Fund(bob, "ethereum", 1_000_000)
			g, err := graph.TwoParty(1, alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
			if err != nil {
				t.Fatal(err)
			}
			b.Presign(g.Digest(), []*xchain.Participant{alice, bob})
			w, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			r := twoPartyRun(t, w, alice, bob, 0)
			r.ms = signGraph(w, r.cfg.Graph, r.cfg.Participants)
			for i, s := range multisig(g.Digest(), alice.Key, bob.Key).Sigs {
				if !r.ms.Sigs[i].Equal(s) {
					t.Fatalf("presigned signature %d differs from MultiSig.Add's", i)
				}
			}
			if forge {
				r.ms = &crypto.MultiSig{Digest: r.ms.Digest, Sigs: slices.Clone(r.ms.Sigs)}
				r.ms.Sigs[1].Sig = slices.Clone(r.ms.Sigs[1].Sig)
				r.ms.Sigs[1].Sig[0] ^= 1
			}
			r.Runtime.Start()
			w.RunUntil(5 * sim.Minute)
			_, deployed := w.View("witness").TipState().Contract(r.scwAddr)
			if deployed == forge || (w.Sigs.Checked.Inline > 0) != forge || w.Sigs.Ready == 0 {
				t.Fatalf("SCw deployed %v, %d signatures verified inline, %d verdicts read", deployed, w.Sigs.Checked.Inline, w.Sigs.Ready)
			}
		})
	}
}
