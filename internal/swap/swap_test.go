package swap

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// delta for tests: ConfirmDepth=3 blocks of 10s plus margin.
const testDelta = 60 * sim.Second

// twoPartyWorld builds the Figure 4 scenario on two chains.
func twoPartyWorld(t *testing.T, seed uint64) (*xchain.World, *Run, *xchain.Participant, *xchain.Participant) {
	t.Helper()
	b := xchain.NewBuilder(seed)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	b.Chain(xchain.DefaultChainSpec("bitcoin"))
	b.Chain(xchain.DefaultChainSpec("ethereum"))
	b.Fund(alice, "bitcoin", 1_000_000)
	b.Fund(bob, "ethereum", 1_000_000)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.TwoParty(1, alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(w, Config{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Leader:       alice,
		Delta:        testDelta,
		ConfirmDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, r, alice, bob
}

func TestNolanTwoPartyHappyPath(t *testing.T) {
	w, r, alice, bob := twoPartyWorld(t, 100)
	r.Start()
	w.RunUntil(40 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if !out.Committed() {
		t.Fatalf("swap did not commit: %+v", out.Edges)
	}
	if out.AtomicityViolated() {
		t.Fatal("atomicity violated on happy path")
	}
	// Assets actually moved: bob holds the bitcoin-side asset, alice
	// the ethereum-side asset.
	btcView := w.View("bitcoin")
	var bobBTC uint64
	for _, o := range btcView.TipState().AppendOwned(nil, bob.Addr()) {
		bobBTC += o.Out.Value
	}
	if bobBTC != 40_000 {
		t.Fatalf("bob owns %d on bitcoin, want 40000", bobBTC)
	}
	ethView := w.View("ethereum")
	var aliceETH uint64
	for _, o := range ethView.TipState().AppendOwned(nil, alice.Addr()) {
		aliceETH += o.Out.Value
	}
	if aliceETH != 90_000 {
		t.Fatalf("alice owns %d on ethereum, want 90000", aliceETH)
	}
	if out.Deploys != 2 || out.Calls != 2 {
		t.Fatalf("ops: %d deploys %d calls, want 2/2", out.Deploys, out.Calls)
	}
}

func TestSwapSequentialDeployment(t *testing.T) {
	_, r, _, _ := twoPartyWorld(t, 101)
	w := r.w
	r.Start()
	w.RunUntil(40 * sim.Minute)

	// Bob's deploy (edge 1, layer 1) must be submitted only after
	// alice's (edge 0, layer 0) confirmed — the sequential structure.
	var aliceConfirmed, bobSubmitted sim.Time
	for _, ev := range r.Events() {
		if ev.Edge == 0 && ev.Label == "deploy confirmed" && aliceConfirmed == 0 {
			aliceConfirmed = ev.At
		}
		if ev.Edge == 1 && ev.Label == "deploy submitted" && bobSubmitted == 0 {
			bobSubmitted = ev.At
		}
	}
	if aliceConfirmed == 0 || bobSubmitted == 0 {
		t.Fatalf("missing events: aliceConfirmed=%d bobSubmitted=%d", aliceConfirmed, bobSubmitted)
	}
	if bobSubmitted < aliceConfirmed {
		t.Fatalf("bob deployed at %d before alice confirmed at %d", bobSubmitted, aliceConfirmed)
	}
}

func TestSwapAbortsWhenCounterpartyNeverDeploys(t *testing.T) {
	w, r, alice, bob := twoPartyWorld(t, 102)
	// Bob crashes immediately: he never deploys SC2. Alice's SC1
	// times out and refunds.
	bob.Crash()
	r.Start()
	w.RunUntil(60 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if out.Committed() {
		t.Fatal("swap committed with a crashed counterparty")
	}
	if out.AtomicityViolated() {
		t.Fatal("mixed outcome: refund path must not violate atomicity")
	}
	// Alice got her asset back.
	var aliceBTC uint64
	for _, o := range w.View("bitcoin").TipState().AppendOwned(nil, alice.Addr()) {
		aliceBTC += o.Out.Value
	}
	if aliceBTC != 1_000_000 {
		t.Fatalf("alice owns %d on bitcoin after refund, want 1000000", aliceBTC)
	}
}

// redeemedEdge1 reports that edge 1's redeem is on r's timeline.
func redeemedEdge1(r *Run) bool {
	for _, ev := range r.Events() {
		if ev.Edge == 1 && ev.Label == "redeem submitted" {
			return true
		}
	}
	return false
}

func TestSwapCrashAfterRevealViolatesAtomicity(t *testing.T) {
	// THE Section 1 scenario: the swap proceeds normally; Bob crashes
	// right after Alice redeems SC2 (revealing s) but before he
	// redeems SC1. SC1's timelock expires, Alice refunds it: Alice
	// holds both assets, Bob lost his — an all-or-nothing violation.
	w, r, _, bob := twoPartyWorld(t, 103)
	r.Start()

	// Crash bob the moment alice submits the redeem of edge 1 (his
	// outgoing ethereum contract): the reveal is in flight, bob never
	// reacts to it. The row fires in the instant of the push, long
	// before the ~10s block that would let bob observe the secret.
	sawRedeem := false
	r.Arm(protocol.AtCommitPush, func(protocol.Protocol) {
		sawRedeem = redeemedEdge1(r)
		bob.Crash()
	})

	w.RunUntil(2 * sim.Hour)
	w.StopMining()
	w.RunFor(sim.Minute)

	if !sawRedeem {
		t.Fatal("the first redeem was not alice's of edge 1; scenario did not unfold")
	}
	out := r.Grade()
	if !out.AtomicityViolated() {
		states := []contracts.SwapState{}
		for _, e := range out.Edges {
			states = append(states, e.State)
		}
		t.Fatalf("expected atomicity violation, got states %v", states)
	}
}

func TestSwapCrashedBobRecoversTooLate(t *testing.T) {
	// Variation: bob recovers after the timelock and the runtime
	// resumes his reconciler — it re-derives the revealed secret from
	// chain state and retries his redeem, but the refund already
	// executed. Recovery does not help; the asset is gone. (AC3WN's
	// core test shows the contrast: recovery there redeems
	// successfully.)
	w, r, alice, bob := twoPartyWorld(t, 104)
	r.Start()
	sawRedeem := false
	r.Arm(protocol.AtCommitPush, func(protocol.Protocol) {
		sawRedeem = redeemedEdge1(r)
		bob.Crash()
	})
	w.RunUntil(2 * sim.Hour) // timelocks expire; alice refunds SC1
	if !sawRedeem {
		t.Fatal("the first redeem was not alice's of edge 1; scenario did not unfold")
	}
	bob.Recover()
	r.Resume(bob)
	w.RunUntil(w.Sim.Now() + 20*sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if !out.AtomicityViolated() {
		t.Fatal("late recovery should not rescue the baseline protocol")
	}
	// Alice ended up with both assets.
	var aliceBTC uint64
	for _, o := range w.View("bitcoin").TipState().AppendOwned(nil, alice.Addr()) {
		aliceBTC += o.Out.Value
	}
	if aliceBTC != 1_000_000 {
		t.Fatalf("alice btc = %d, want her full refund", aliceBTC)
	}
}

func TestHerlihyRingThreeParties(t *testing.T) {
	b := xchain.NewBuilder(105)
	ps := []*xchain.Participant{b.Participant("p0"), b.Participant("p1"), b.Participant("p2")}
	ids := []chain.ID{"c0", "c1", "c2"}
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
	// Build the ring manually: p[i] sends on chain i to p[i+1].
	rg, err := graph.New(1,
		graph.Edge{From: ps[0].Addr(), To: ps[1].Addr(), Asset: 10_000, Chain: "c0"},
		graph.Edge{From: ps[1].Addr(), To: ps[2].Addr(), Asset: 10_000, Chain: "c1"},
		graph.Edge{From: ps[2].Addr(), To: ps[0].Addr(), Asset: 10_000, Chain: "c2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(w, Config{
		Graph:        rg,
		Participants: ps,
		Leader:       ps[0],
		Delta:        testDelta,
		ConfirmDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	w.RunUntil(90 * sim.Minute)
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if !out.Committed() {
		t.Fatalf("3-ring did not commit: %+v", out.Edges)
	}
	if out.Latency() <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestLatencyScalesWithDiameter(t *testing.T) {
	// The Figure 10 shape at small scale: a 4-ring takes measurably
	// longer than a 2-party swap under the same Δ.
	run := func(n int, seed uint64) sim.Time {
		b := xchain.NewBuilder(seed)
		var ps []*xchain.Participant
		var ids []chain.ID
		for i := 0; i < n; i++ {
			ps = append(ps, b.Participant("p"))
			id := chain.ID(rune('a'+i) + 0) // distinct ids
			id = chain.ID("chain-" + string(rune('a'+i)))
			ids = append(ids, id)
			b.Chain(xchain.DefaultChainSpec(id))
		}
		var edges []graph.Edge
		for i := 0; i < n; i++ {
			b.Fund(ps[i], ids[i], 1_000_000)
			edges = append(edges, graph.Edge{
				From: ps[i].Addr(), To: ps[(i+1)%n].Addr(), Asset: 1_000, Chain: ids[i],
			})
		}
		w, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.New(1, edges...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(w, Config{
			Graph: g, Participants: ps, Leader: ps[0],
			Delta: testDelta, ConfirmDepth: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		w.RunUntil(6 * sim.Hour)
		w.StopMining()
		w.RunFor(sim.Minute)
		out := r.Grade()
		if !out.Committed() {
			t.Fatalf("n=%d did not commit", n)
		}
		return out.Latency()
	}
	l2 := run(2, 200)
	l4 := run(4, 201)
	if l4 <= l2 {
		t.Fatalf("latency(4-ring)=%d <= latency(2-party)=%d; want linear growth", l4, l2)
	}
	// The ratio should be roughly Diam=4 vs Diam=2, i.e. ≈2; accept
	// generous slack for confirmation noise.
	if ratio := float64(l4) / float64(l2); ratio < 1.4 {
		t.Fatalf("latency ratio %.2f too flat for a sequential protocol", ratio)
	}
}

func TestConfigValidation(t *testing.T) {
	b := xchain.NewBuilder(1)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	b.Chain(xchain.DefaultChainSpec("c1"))
	b.Chain(xchain.DefaultChainSpec("c2"))
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.TwoParty(1, alice.Addr(), bob.Addr(), 1, "c1", 2, "c2")
	if _, err := New(w, Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(w, Config{Graph: g, Participants: []*xchain.Participant{alice}, Leader: alice, Delta: testDelta}); err == nil {
		t.Fatal("missing participant object accepted")
	}
	if _, err := New(w, Config{Graph: g, Participants: []*xchain.Participant{alice, bob}, Leader: alice, Delta: 0}); err == nil {
		t.Fatal("zero delta accepted")
	}
	// Disconnected graphs are rejected (Section 5.3).
	ks := []*xchain.Participant{alice, bob, b.Participant("x"), b.Participant("y")}
	dg, err := graph.New(2,
		graph.Edge{From: ks[0].Addr(), To: ks[1].Addr(), Asset: 5, Chain: "c1"},
		graph.Edge{From: ks[1].Addr(), To: ks[0].Addr(), Asset: 5, Chain: "c2"},
		graph.Edge{From: ks[2].Addr(), To: ks[3].Addr(), Asset: 5, Chain: "c1"},
		graph.Edge{From: ks[3].Addr(), To: ks[2].Addr(), Asset: 5, Chain: "c2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(w, Config{Graph: dg, Participants: ks, Leader: alice, Delta: testDelta}); err == nil {
		t.Fatal("disconnected graph accepted by single-leader baseline")
	}
}
