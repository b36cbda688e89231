package swap

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestRefundCascadeWhenMidChainParticipantDefects: in a 4-ring, the
// third participant crashes before deploying. Upstream contracts are
// already locked; all of them must refund cleanly once their
// timelocks expire — no commits, no violations, everyone's assets
// restored.
func TestRefundCascadeWhenMidChainParticipantDefects(t *testing.T) {
	b := xchain.NewBuilder(880)
	var ps []*xchain.Participant
	var ids []chain.ID
	for i := 0; i < 4; i++ {
		ps = append(ps, b.Participant("p"))
		id := chain.ID("chain-" + string(rune('a'+i)))
		ids = append(ids, id)
		b.Chain(xchain.DefaultChainSpec(id))
	}
	var edges []graph.Edge
	for i := 0; i < 4; i++ {
		b.Fund(ps[i], ids[i], 1_000_000)
		edges = append(edges, graph.Edge{
			From: ps[i].Addr(), To: ps[(i+1)%4].Addr(), Asset: 5_000, Chain: ids[i],
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
		Graph:        g,
		Participants: ps,
		Leader:       ps[0],
		Delta:        60 * sim.Second,
		ConfirmDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps[2].Crash() // defects before the protocol starts
	r.Start()
	w.RunUntil(4 * sim.Hour) // all timelocks expire
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	if out.Committed() || out.AtomicityViolated() {
		t.Fatalf("defection mishandled: %+v", out.Edges)
	}
	if !out.Aborted() {
		t.Fatalf("upstream contracts not all refunded: %+v", out.Edges)
	}
	// Each deployed contract is RF; each sender got its asset back.
	for i, e := range out.Edges {
		if e.Deployed && e.State != contracts.StateRefunded {
			t.Fatalf("edge %d state %s after defection", i, e.State)
		}
	}
	for i, p := range ps {
		if i == 2 {
			continue // the defector never spent anything
		}
		var total uint64
		for _, o := range w.View(ids[i]).TipState().AppendOwned(nil, p.Addr()) {
			total += o.Out.Value
		}
		if total != 1_000_000 {
			t.Fatalf("participant %d ended with %d on %s, want full restore", i, total, ids[i])
		}
	}
}

// TestTimelockOrderingInvariant: for every edge pair where one
// contract's redemption reveals the secret another depends on, the
// dependent (closer-to-leader) contract must carry the LATER
// timelock — Nolan's t1 > t2 generalized.
func TestTimelockOrderingInvariant(t *testing.T) {
	b := xchain.NewBuilder(881)
	var ps []*xchain.Participant
	var ids []chain.ID
	for i := 0; i < 5; i++ {
		ps = append(ps, b.Participant("p"))
		id := chain.ID("ring-" + string(rune('a'+i)))
		ids = append(ids, id)
		b.Chain(xchain.DefaultChainSpec(id))
	}
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		b.Fund(ps[i], ids[i], 1_000_000)
		edges = append(edges, graph.Edge{
			From: ps[i].Addr(), To: ps[(i+1)%5].Addr(), Asset: 100, Chain: ids[i],
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
		Graph:        g,
		Participants: ps,
		Leader:       ps[0],
		Delta:        60 * sim.Second,
		ConfirmDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	// Layer k deploys edge k in this ring (leader = ps[0]); the
	// timelock must strictly decrease with the layer.
	for i := 0; i+1 < len(r.timelocks); i++ {
		if r.timelocks[i+1] != r.timelocks[i]-int64(60*sim.Second) {
			t.Fatalf("ring layers not sequential: timelocks %v are not one Δ apart", r.timelocks)
		}
		if r.timelocks[i+1] >= r.timelocks[i] {
			t.Fatalf("timelock ordering violated: t[%d]=%d <= t[%d]=%d",
				i, r.timelocks[i], i+1, r.timelocks[i+1])
		}
	}
}
