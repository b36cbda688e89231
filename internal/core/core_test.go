package core

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// twoPartyWorld builds Figure 4's scenario plus a dedicated witness
// chain.
func twoPartyWorld(t *testing.T, seed uint64) (*xchain.World, *xchain.Participant, *xchain.Participant) {
	t.Helper()
	b := xchain.NewBuilder(seed)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	for _, id := range []chain.ID{"bitcoin", "ethereum", "witness"} {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	b.Fund(alice, "bitcoin", 1_000_000)
	b.Fund(bob, "ethereum", 1_000_000)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w, alice, bob
}

func twoPartyRun(t *testing.T, w *xchain.World, alice, bob *xchain.Participant, abortAfter sim.Time) *Run {
	t.Helper()
	g, err := graph.TwoParty(1, alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(w, Config{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		WitnessChain: "witness",
		WitnessDepth: 2,
		AssetDepth:   2,
		AbortAfter:   abortAfter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func ownedTotal(w *xchain.World, id chain.ID, a crypto.Address) uint64 {
	var total uint64
	for _, o := range w.View(id).TipState().AppendOwned(nil, a) {
		total += o.Out.Value
	}
	return total
}

func TestAC3WNTwoPartyCommit(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 500)
	r := twoPartyRun(t, w, alice, bob, 0)
	r.Start()
	w.RunUntil(60 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if !out.Committed() {
		t.Fatalf("AC3WN did not commit: %+v (events: %v)", out.Edges, r.Events())
	}
	if out.AtomicityViolated() {
		t.Fatal("atomicity violated")
	}
	if got := ownedTotal(w, "bitcoin", bob.Addr()); got != 40_000 {
		t.Fatalf("bob btc = %d, want 40000", got)
	}
	if got := ownedTotal(w, "ethereum", alice.Addr()); got != 90_000 {
		t.Fatalf("alice eth = %d, want 90000", got)
	}
	// Figure 9's four phase boundaries all recorded, in order.
	if !(r.SCwConfirmedAt > 0 && r.AllDeployedAt >= r.SCwConfirmedAt &&
		r.DecidedAt >= r.AllDeployedAt && r.CompletedAt >= r.DecidedAt) {
		t.Fatalf("phases out of order: scw=%d deployed=%d decided=%d done=%d",
			r.SCwConfirmedAt, r.AllDeployedAt, r.DecidedAt, r.CompletedAt)
	}
	// Cost model (Section 6.2): N+1 deployments, N+1 calls.
	if out.Deploys != 3 {
		t.Fatalf("deploys = %d, want 3 (N+1)", out.Deploys)
	}
	if out.Calls != 3 {
		t.Fatalf("calls = %d, want 3 (N+1)", out.Calls)
	}
}

func TestAC3WNAbortWhenParticipantNeverActs(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 501)
	r := twoPartyRun(t, w, alice, bob, 20*sim.Minute)
	bob.Crash() // bob never deploys
	r.Start()
	w.RunUntil(90 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if out.Committed() {
		t.Fatal("committed without bob's contract")
	}
	if !out.Aborted() {
		t.Fatalf("not cleanly aborted: %+v", out.Edges)
	}
	if out.AtomicityViolated() {
		t.Fatal("atomicity violated on abort path")
	}
	if got := ownedTotal(w, "bitcoin", alice.Addr()); got != 1_000_000 {
		t.Fatalf("alice btc = %d, want full refund", got)
	}
	if r.DecidedOutcome != contracts.WitnessRefundAuthorized {
		t.Fatalf("decision = %s, want RFauth", r.DecidedOutcome)
	}
}

func TestAC3WNCrashRecoveryPreservesAtomicity(t *testing.T) {
	// The headline contrast with the HTLC baseline: bob crashes right
	// when the commit decision is being pushed, stays down for an
	// hour — far beyond any baseline timelock — then recovers and
	// still redeems. All-or-nothing holds; nobody loses assets.
	w, alice, bob := twoPartyWorld(t, 502)
	r := twoPartyRun(t, w, alice, bob, 0)
	r.Start()

	crashed := false
	r.Arm(protocol.AtCommitPush, func(protocol.Protocol) {
		crashed = true
		bob.Crash()
	})

	w.RunUntil(90 * sim.Minute) // bob down; alice redeems her side
	if !crashed {
		t.Fatal("decision never pushed; scenario did not unfold")
	}

	mid := r.Grade()
	if mid.AtomicityViolated() {
		t.Fatal("violation while bob is down — impossible without timelocks")
	}
	if mid.Committed() {
		t.Fatal("cannot be fully committed while bob is down")
	}

	bob.Recover()
	r.Resume(bob)
	w.RunUntil(w.Sim.Now() + 60*sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if !out.Committed() {
		t.Fatalf("recovered bob could not redeem: %+v", out.Edges)
	}
	if got := ownedTotal(w, "bitcoin", bob.Addr()); got != 40_000 {
		t.Fatalf("bob btc = %d after recovery, want 40000", got)
	}
}

func TestAC3WNInitiatorCrashAfterDeploysStillCommits(t *testing.T) {
	// Decentralization: the initiator is not a coordinator. Once SCw
	// and the contracts are on-chain, any participant can push the
	// decision.
	w, alice, bob := twoPartyWorld(t, 503)
	r := twoPartyRun(t, w, alice, bob, 0)
	r.Start()

	every(w.Sim, sim.Second, func() bool {
		// Crash alice the moment every deploy is confirmed, before
		// any authorize_redeem was submitted.
		if r.AllDeployedAt > 0 {
			for _, ev := range r.Events() {
				if ev.Label == "authorize_redeem submitted by alice" {
					return true // too late to test; skip crash
				}
			}
			alice.Crash()
			return true
		}
		return false
	})
	w.RunUntil(2 * sim.Hour)

	// Bob alone must have pushed the commit.
	scwView := w.View("witness")
	found := false
	for h := scwView.Height(); h > 0; h-- {
		b, _ := scwView.CanonicalAt(h)
		for _, tx := range b.Txs {
			if tx.Kind == chain.TxCall && tx.Fn == contracts.FnAuthorizeRedeem {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no authorize_redeem on the witness chain")
	}
	// Bob redeems his side; alice's side stays P until she recovers.
	alice.Recover()
	r.Resume(alice)
	w.RunUntil(w.Sim.Now() + 60*sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if !out.Committed() {
		t.Fatalf("AC2T did not commit after initiator crash: %+v", out.Edges)
	}
}

func TestAC3WNCyclicGraphCommits(t *testing.T) {
	// Figure 7a: a graph that is NOT single-leader feasible (two
	// overlapping rings) commits fine under AC3WN.
	b := xchain.NewBuilder(504)
	ps := []*xchain.Participant{b.Participant("p0"), b.Participant("p1"), b.Participant("p2")}
	ids := []chain.ID{"c0", "c1", "c2", "witness"}
	for _, id := range ids {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	for i, p := range ps {
		b.Fund(p, ids[i], 1_000_000)
		b.Fund(p, ids[(i+1)%3], 1_000_000)
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.New(1,
		graph.Edge{From: ps[0].Addr(), To: ps[1].Addr(), Asset: 1_000, Chain: "c0"},
		graph.Edge{From: ps[1].Addr(), To: ps[2].Addr(), Asset: 1_000, Chain: "c1"},
		graph.Edge{From: ps[2].Addr(), To: ps[0].Addr(), Asset: 1_000, Chain: "c2"},
		graph.Edge{From: ps[0].Addr(), To: ps[2].Addr(), Asset: 1_000, Chain: "c1"},
		graph.Edge{From: ps[2].Addr(), To: ps[1].Addr(), Asset: 1_000, Chain: "c0"},
		graph.Edge{From: ps[1].Addr(), To: ps[0].Addr(), Asset: 1_000, Chain: "c2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if feasible, _ := g.HerlihyFeasible(); feasible {
		t.Fatal("test graph should not be single-leader feasible")
	}
	r, err := New(w, Config{
		Graph:        g,
		Participants: ps,
		Initiator:    ps[0],
		WitnessChain: "witness",
		WitnessDepth: 2,
		AssetDepth:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	w.RunUntil(2 * sim.Hour)
	w.StopMining()
	w.RunFor(sim.Minute)
	out := r.Grade()
	if !out.Committed() {
		t.Fatalf("cyclic graph did not commit: %+v", out.Edges)
	}
}

func TestAC3WNDisconnectedGraphCommits(t *testing.T) {
	// Figure 7b: two disjoint swaps in one AC2T.
	b := xchain.NewBuilder(505)
	ps := []*xchain.Participant{
		b.Participant("p0"), b.Participant("p1"),
		b.Participant("p2"), b.Participant("p3"),
	}
	ids := []chain.ID{"c0", "c1", "c2", "c3", "witness"}
	for _, id := range ids {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	for i, p := range ps {
		b.Fund(p, ids[i], 1_000_000)
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.New(1,
		graph.Edge{From: ps[0].Addr(), To: ps[1].Addr(), Asset: 1_000, Chain: "c0"},
		graph.Edge{From: ps[1].Addr(), To: ps[0].Addr(), Asset: 1_000, Chain: "c1"},
		graph.Edge{From: ps[2].Addr(), To: ps[3].Addr(), Asset: 1_000, Chain: "c2"},
		graph.Edge{From: ps[3].Addr(), To: ps[2].Addr(), Asset: 1_000, Chain: "c3"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.IsWeaklyConnected() {
		t.Fatal("graph should be disconnected")
	}
	r, err := New(w, Config{
		Graph:        g,
		Participants: ps,
		Initiator:    ps[0],
		WitnessChain: "witness",
		WitnessDepth: 2,
		AssetDepth:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	w.RunUntil(2 * sim.Hour)
	w.StopMining()
	w.RunFor(sim.Minute)
	out := r.Grade()
	if !out.Committed() {
		t.Fatalf("disconnected graph did not commit: %+v", out.Edges)
	}
}

func TestAC3WNWitnessOnAssetChain(t *testing.T) {
	// Section 5.2/6.4: the witness network can be one of the involved
	// chains — here ethereum coordinates the AC2T it also carries.
	b := xchain.NewBuilder(506)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	for _, id := range []chain.ID{"bitcoin", "ethereum"} {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	b.Fund(alice, "bitcoin", 1_000_000)
	b.Fund(bob, "ethereum", 1_000_000)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	r, err := New(w, Config{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		WitnessChain: "ethereum",
		WitnessDepth: 2,
		AssetDepth:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	w.RunUntil(90 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)
	if out := r.Grade(); !out.Committed() {
		t.Fatalf("witness-on-asset-chain run did not commit: %+v", out.Edges)
	}
}

func TestAC3WNConfigValidation(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 507)
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 1, "bitcoin", 2, "ethereum")
	if _, err := New(w, Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(w, Config{Graph: g, Participants: []*xchain.Participant{alice, bob}, Initiator: alice, WitnessChain: "nope"}); err == nil {
		t.Fatal("unknown witness chain accepted")
	}
	if _, err := New(w, Config{Graph: g, Participants: []*xchain.Participant{alice}, Initiator: alice, WitnessChain: "witness"}); err == nil {
		t.Fatal("missing participant accepted")
	}
	if _, err := New(w, Config{Graph: g, Participants: []*xchain.Participant{alice, bob}, Initiator: alice, WitnessChain: "witness", WitnessDepth: -1}); err == nil {
		t.Fatal("negative depth accepted")
	}
}

// --- AC3TW ---

func TestAC3TWTwoPartyCommit(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 508)
	trent := NewTrent(w, 9999, 100*sim.Millisecond, 2)
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	r, err := NewTW(w, TWConfig{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Trent:        trent,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	w.RunUntil(40 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if !out.Committed() {
		t.Fatalf("AC3TW did not commit: %+v (events %v)", out.Edges, r.Events())
	}
	if trent.SignedRD != 1 || trent.SignedRF != 0 {
		t.Fatalf("trent signed RD=%d RF=%d, want 1/0", trent.SignedRD, trent.SignedRF)
	}
	if got := ownedTotal(w, "bitcoin", bob.Addr()); got != 40_000 {
		t.Fatalf("bob btc = %d", got)
	}
}

func TestAC3TWAbortRefundsEveryone(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 509)
	trent := NewTrent(w, 9999, 100*sim.Millisecond, 2)
	bob.Crash()
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	r, err := NewTW(w, TWConfig{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Trent:        trent,
		AbortAfter:   20 * sim.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	w.RunUntil(90 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if !out.Aborted() || out.AtomicityViolated() {
		t.Fatalf("AC3TW abort path failed: %+v", out.Edges)
	}
	if trent.SignedRF != 1 || trent.SignedRD != 0 {
		t.Fatalf("trent signed RD=%d RF=%d, want 0/1", trent.SignedRD, trent.SignedRF)
	}
	if got := ownedTotal(w, "bitcoin", alice.Addr()); got != 1_000_000 {
		t.Fatalf("alice btc = %d, want refund", got)
	}
}

func TestAC3TWMutualExclusion(t *testing.T) {
	// Once Trent signs RD, a refund request returns the RD decision
	// rather than a refund signature.
	w, alice, bob := twoPartyWorld(t, 510)
	trent := NewTrent(w, 9999, 100*sim.Millisecond, 2)
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	r, _ := NewTW(w, TWConfig{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Trent:        trent,
	})
	r.Start()
	w.RunUntil(40 * sim.Minute)

	var gotPurpose crypto.Purpose
	trent.RequestRefund(r.msID, func(sig crypto.Signature, p crypto.Purpose, err error) {
		if err != nil {
			t.Errorf("refund request errored: %v", err)
			return
		}
		gotPurpose = p
	})
	w.RunFor(sim.Minute)
	if gotPurpose != crypto.PurposeRedeem {
		t.Fatalf("refund request after commit returned %v, want the stored RD", gotPurpose)
	}
	if trent.SignedRF != 0 {
		t.Fatal("trent issued a refund signature after committing")
	}
}

func TestAC3TWTrentCrashStallsProtocol(t *testing.T) {
	// The availability weakness of the centralized design: with Trent
	// down, nothing can be decided. (AC3WN has no such single point.)
	w, alice, bob := twoPartyWorld(t, 511)
	trent := NewTrent(w, 9999, 100*sim.Millisecond, 2)
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	r, _ := NewTW(w, TWConfig{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Trent:        trent,
	})
	// Trent crashes after registration (sub-second) but before the
	// contracts confirm (~40s), so no decision can have been made.
	w.Sim.At(5*sim.Second, func() { trent.Crash() })
	r.Start()
	w.RunUntil(60 * sim.Minute)

	if r.Decided() {
		t.Fatal("decision reached while Trent was down")
	}
	out := r.Grade()
	if out.Committed() || out.AtomicityViolated() {
		t.Fatalf("unexpected outcome during stall: %+v", out.Edges)
	}

	// Recovery: Trent comes back, and the initiator's throttled
	// re-request (the reconciler retries on every notification)
	// unblocks the run without any manual poke.
	trent.Recover()
	w.RunUntil(w.Sim.Now() + 40*sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)
	if out := r.Grade(); !out.Committed() {
		t.Fatalf("AC3TW did not commit after Trent recovered: %+v", out.Edges)
	}
}

func TestAC3TWRegisterDuplicateRejected(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 512)
	trent := NewTrent(w, 9999, 100*sim.Millisecond, 2)
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 1, "bitcoin", 2, "ethereum")
	ms := crypto.NewMultiSig(g.Digest())
	ms.Add(alice.Key)
	ms.Add(bob.Key)
	var first, second error
	trent.Register(g, ms, func(err error) { first = err })
	w.RunFor(sim.Minute)
	trent.Register(g, ms, func(err error) { second = err })
	w.RunFor(sim.Minute)
	if first != nil {
		t.Fatalf("first registration failed: %v", first)
	}
	if second == nil {
		t.Fatal("duplicate registration accepted")
	}
	// Incomplete multisig rejected.
	g2, _ := graph.TwoParty(2, alice.Addr(), bob.Addr(), 1, "bitcoin", 2, "ethereum")
	ms2 := crypto.NewMultiSig(g2.Digest())
	ms2.Add(alice.Key)
	var third error
	trent.Register(g2, ms2, func(err error) { third = err })
	w.RunFor(sim.Minute)
	if third == nil {
		t.Fatal("incomplete multisig registered")
	}
}

// every runs fn every d of virtual time, the first time d from now,
// until it reports true.
func every(s *sim.Sim, d sim.Time, fn func() bool) {
	s.After(d, func() {
		if !fn() {
			every(s, d, fn)
		}
	})
}
