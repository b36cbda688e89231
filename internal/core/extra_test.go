package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/spv"
	"repro/internal/xchain"
)

// TestDeterminism: the entire distributed system — miners, forks,
// gossip, protocol — replays identically from a seed. This is the
// property every experiment in the repository leans on.
func TestDeterminism(t *testing.T) {
	trace := func() (crypto.Hash, crypto.Hash, sim.Time, bool) {
		w, alice, bob := twoPartyWorld(t, 777)
		r := twoPartyRun(t, w, alice, bob, 0)
		r.Start()
		w.RunUntil(45 * sim.Minute)
		w.StopMining()
		w.RunFor(sim.Minute)
		out := r.Grade()
		return w.View("bitcoin").Tip().Hash(), w.View("witness").Tip().Hash(),
			out.Latency(), out.Committed()
	}
	b1, w1, l1, c1 := trace()
	b2, w2, l2, c2 := trace()
	if b1 != b2 || w1 != w2 || l1 != l2 || c1 != c2 {
		t.Fatalf("same seed diverged: tips %s/%s vs %s/%s, latency %d vs %d, committed %v vs %v",
			b1, w1, b2, w2, l1, l2, c1, c2)
	}
}

// TestWitnessEvidenceCannotBeReplayedAcrossAC2Ts: the commit evidence
// of one AC2T must not redeem another AC2T's contracts, even when
// both use the same witness network. (The asset contract pins its own
// SCw address; evidence proving a call on a different SCw fails.)
func TestWitnessEvidenceCannotBeReplayedAcrossAC2Ts(t *testing.T) {
	b := xchain.NewBuilder(606)
	a1 := b.Participant("a1")
	b1 := b.Participant("b1")
	a2 := b.Participant("a2")
	b2 := b.Participant("b2")
	for _, id := range []chain.ID{"c1", "c2", "witness"} {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	b.Fund(a1, "c1", 1_000_000)
	b.Fund(b1, "c2", 1_000_000)
	b.Fund(a2, "c1", 1_000_000)
	b.Fund(b2, "c2", 1_000_000)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	mkRun := func(x, y *xchain.Participant, ts int64) *Run {
		g, err := graph.TwoParty(ts, x.Addr(), y.Addr(), 10_000, "c1", 20_000, "c2")
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(w, Config{
			Graph:        g,
			Participants: []*xchain.Participant{x, y},
			Initiator:    x,
			WitnessChain: "witness",
			WitnessDepth: 2,
			AssetDepth:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := mkRun(a1, b1, 1)
	r2 := mkRun(a2, b2, 2)
	r1.Start()
	// Run 2 only deploys; we freeze it right before any decision by
	// never letting its participants push (crash them after deploys).
	r2.Start()
	every(w.Sim, sim.Second, func() bool {
		if r2.AllDeployedAt > 0 {
			a2.Crash()
			b2.Crash()
			return true
		}
		return false
	})
	w.RunUntil(60 * sim.Minute)

	if !r1.Grade().Committed() {
		t.Fatal("run 1 did not commit; fixture broken")
	}
	// Forge: use run 1's commit evidence on run 2's contract.
	wview := w.View("witness")
	auth, ok := r1.FindCall(a1, "witness", r1.scwAddr, contracts.FnAuthorizeRedeem, nil)
	if !ok {
		t.Fatal("no authorize_redeem for run 1")
	}
	r2addrs := r2.Addrs()
	if r2addrs[0].IsZero() {
		t.Fatal("run 2 contract not deployed")
	}
	ct, ok := w.View("c1").TipState().Contract(r2addrs[0])
	if !ok {
		t.Fatal("run 2 contract missing")
	}
	sc := ct.(*contracts.PermissionlessSC)
	hdr, err := chain.DecodeHeader(sc.WitnessCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := spv.Build(wview, hdr.Hash(), auth.ID(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Replay via a direct client call: miners must reject it.
	mallory := b1 // any signer; redeem is permissionless but evidence-checked
	tx, err := mallory.Client("c1").Call(r2addrs[0], contracts.FnRedeem, ev.Encode(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w.RunUntil(w.Sim.Now() + 20*sim.Minute)
	if _, _, found := w.View("c1").FindTx(tx.ID()); found {
		t.Fatal("cross-AC2T evidence replay was accepted on-chain")
	}
	if got := w.View("c1").TipState(); got != nil {
		if c2state, ok := got.Contract(r2addrs[0]); ok {
			if c2state.(*contracts.PermissionlessSC).State != contracts.StatePublished {
				t.Fatal("run 2 contract left P state via replayed evidence")
			}
		}
	}
}

// TestAC3TWHandlesComplexGraphs: the centralized strawman also
// commits graphs the single-leader baseline cannot (it shares AC3WN's
// separation of coordination from execution — the witness just
// happens to be trusted).
func TestAC3TWHandlesComplexGraphs(t *testing.T) {
	b := xchain.NewBuilder(607)
	ps := []*xchain.Participant{b.Participant("p0"), b.Participant("p1"), b.Participant("p2")}
	for _, id := range []chain.ID{"c0", "c1", "c2"} {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	for i, p := range ps {
		b.Fund(p, chain.ID(fmt.Sprintf("c%d", i)), 1_000_000)
		b.Fund(p, chain.ID(fmt.Sprintf("c%d", (i+1)%3)), 1_000_000)
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 7a double-ring (not single-leader feasible).
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
	trent := NewTrent(w, 1234, 100*sim.Millisecond, 2)
	r, err := NewTW(w, TWConfig{
		Graph:        g,
		Participants: ps,
		Initiator:    ps[0],
		Trent:        trent,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	w.RunUntil(90 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)
	if out := r.Grade(); !out.Committed() {
		t.Fatalf("AC3TW failed the cyclic graph: %+v", out.Edges)
	}
}

// TestTrentRejectsRedeemBeforeDeploysConfirm: Trent must refuse to
// sign RD while any contract is missing (Section 4.1's verification
// role), or mined but shallower than his own depth — the one he was
// made with, since no requester names it.
func TestTrentRejectsRedeemBeforeDeploysConfirm(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 608)
	const depth = 6
	trent := NewTrent(w, 4321, 100*sim.Millisecond, depth)
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 1_000, "bitcoin", 2_000, "ethereum")
	ms := crypto.NewMultiSig(g.Digest())
	ms.Add(alice.Key)
	ms.Add(bob.Key)
	var regErr error
	trent.Register(g, ms, func(err error) { regErr = err })
	w.RunFor(sim.Minute)
	if regErr != nil {
		t.Fatal(regErr)
	}
	request := func(addrs ...crypto.Address) error {
		var got error
		responded := false
		trent.RequestRedeem(ms.ID(), addrs, func(_ crypto.Signature, _ crypto.Purpose, err error) {
			responded, got = true, err
		})
		w.RunFor(sim.Second)
		if !responded {
			t.Fatal("trent never responded")
		}
		return got
	}
	if err := request(crypto.Address{1}, crypto.Address{2}); err == nil || trent.SignedRD != 0 {
		t.Fatal("trent signed RD with no contracts on chain")
	}

	addrs := make([]crypto.Address, len(g.Edges))
	for i, e := range g.Edges {
		p := alice
		if e.From == bob.Addr() {
			p = bob
		}
		params := contracts.CentralizedParams{Recipient: e.To, MSDigest: ms.ID(), Witness: trent.Key.Addr}.Encode()
		var err error
		if _, addrs[i], err = p.Client(e.Chain).Deploy(contracts.TypeCentralized, params, e.Asset); err != nil {
			t.Fatal(err)
		}
	}
	buried := func(d int) bool {
		for i, e := range g.Edges {
			if _, ok := alice.Client(e.Chain).ContractNow(addrs[i], d); !ok {
				return false
			}
		}
		return true
	}
	for !buried(1) {
		w.RunFor(sim.Second)
	}
	want := fmt.Sprintf("contract not found at depth %d", depth)
	if err := request(addrs...); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("contracts mined but shallower than %d: err = %v, want …%q", depth, err, want)
	}
	for !buried(depth) {
		w.RunFor(sim.Second)
	}
	if err := request(addrs...); err != nil {
		t.Fatalf("contracts %d deep: %v", depth, err)
	}
	if trent.SignedRD != 1 {
		t.Fatalf("%d RD signatures, want 1", trent.SignedRD)
	}
}

// TestTrentRejectsOneContractForTwoEdges: two identical edges need two
// contracts. Naming one for both would let the source lock half of
// what the graph promises and still be paid in full.
func TestTrentRejectsOneContractForTwoEdges(t *testing.T) {
	w, alice, bob := twoPartyWorld(t, 609)
	trent := NewTrent(w, 4322, 100*sim.Millisecond, 2)
	g, err := graph.New(1,
		graph.Edge{From: alice.Addr(), To: bob.Addr(), Asset: 1_000, Chain: "bitcoin"},
		graph.Edge{From: alice.Addr(), To: bob.Addr(), Asset: 1_000, Chain: "bitcoin"},
		graph.Edge{From: bob.Addr(), To: alice.Addr(), Asset: 2_000, Chain: "ethereum"},
	)
	if err != nil {
		t.Fatal(err)
	}
	ms := crypto.NewMultiSig(g.Digest())
	ms.Add(alice.Key)
	ms.Add(bob.Key)
	trent.Register(g, ms, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	deploy := func(p *xchain.Participant, e graph.Edge) crypto.Address {
		params := contracts.CentralizedParams{Recipient: e.To, MSDigest: ms.ID(), Witness: trent.Key.Addr}.Encode()
		_, addr, err := p.Client(e.Chain).Deploy(contracts.TypeCentralized, params, e.Asset)
		if err != nil {
			t.Fatal(err)
		}
		w.RunFor(10 * sim.Minute) // mined, and the change spendable again
		return addr
	}
	a1, a2, b := deploy(alice, g.Edges[0]), deploy(alice, g.Edges[1]), deploy(bob, g.Edges[2])
	w.RunFor(30 * sim.Minute)

	request := func(addrs ...crypto.Address) error {
		var got error
		responded := false
		trent.RequestRedeem(ms.ID(), addrs, func(_ crypto.Signature, _ crypto.Purpose, err error) {
			responded, got = true, err
		})
		w.RunFor(sim.Minute)
		if !responded {
			t.Fatal("trent never responded")
		}
		return got
	}
	if err := request(a1, a1, b); err == nil || trent.SignedRD != 0 {
		t.Fatalf("one contract for two edges: err = %v, %d signed", err, trent.SignedRD)
	}
	if err := request(a1, a2, b); err != nil || trent.SignedRD != 1 {
		t.Fatalf("two contracts for two edges: err = %v, %d signed", err, trent.SignedRD)
	}
}

// BenchmarkAC3TWvsAC3WNLatency is the centralization ablation: the
// trusted witness decides instantly (no witness-chain confirmation
// waits), quantifying the latency AC3WN pays for decentralization.
func BenchmarkAC3TWvsAC3WNLatency(b *testing.B) {
	runTW := func(seed uint64) sim.Time {
		bld := xchain.NewBuilder(seed)
		alice := bld.Participant("alice")
		bob := bld.Participant("bob")
		for _, id := range []chain.ID{"bitcoin", "ethereum"} {
			bld.Chain(xchain.DefaultChainSpec(id))
		}
		bld.Fund(alice, "bitcoin", 1_000_000)
		bld.Fund(bob, "ethereum", 1_000_000)
		w, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		trent := NewTrent(w, seed+1, 100*sim.Millisecond, 3)
		g, _ := graph.TwoParty(int64(seed), alice.Addr(), bob.Addr(), 1_000, "bitcoin", 2_000, "ethereum")
		r, err := NewTW(w, TWConfig{
			Graph: g, Participants: []*xchain.Participant{alice, bob},
			Initiator: alice, Trent: trent,
		})
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		w.RunUntil(time1hr)
		out := r.Grade()
		if !out.Committed() {
			b.Fatal("AC3TW did not commit")
		}
		return out.Latency()
	}
	runWN := func(seed uint64) sim.Time {
		bld := xchain.NewBuilder(seed)
		alice := bld.Participant("alice")
		bob := bld.Participant("bob")
		for _, id := range []chain.ID{"bitcoin", "ethereum", "witness"} {
			bld.Chain(xchain.DefaultChainSpec(id))
		}
		bld.Fund(alice, "bitcoin", 1_000_000)
		bld.Fund(bob, "ethereum", 1_000_000)
		w, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		g, _ := graph.TwoParty(int64(seed), alice.Addr(), bob.Addr(), 1_000, "bitcoin", 2_000, "ethereum")
		r, err := New(w, Config{
			Graph: g, Participants: []*xchain.Participant{alice, bob},
			Initiator: alice, WitnessChain: "witness", WitnessDepth: 3, AssetDepth: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		r.Start()
		w.RunUntil(time1hr)
		out := r.Grade()
		if !out.Committed() {
			b.Fatal("AC3WN did not commit")
		}
		return out.Latency()
	}
	var twTotal, wnTotal sim.Time
	for i := 0; i < b.N; i++ {
		twTotal += runTW(uint64(8000 + i))
		wnTotal += runWN(uint64(9000 + i))
	}
	b.ReportMetric(float64(twTotal)/float64(b.N)/1000, "ac3tw-latency-s")
	b.ReportMetric(float64(wnTotal)/float64(b.N)/1000, "ac3wn-latency-s")
}
