package graph

import (
	"encoding/hex"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

func testKeys(n int) []*crypto.KeyPair {
	rng := sim.NewRNG(7)
	out := make([]*crypto.KeyPair, n)
	for i := range out {
		out[i] = crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	}
	return out
}

func addrs(keys []*crypto.KeyPair) []crypto.Address {
	out := make([]crypto.Address, len(keys))
	for i, k := range keys {
		out[i] = k.Addr
	}
	return out
}

func TestNewValidation(t *testing.T) {
	ks := testKeys(2)
	cases := []struct {
		name string
		edge Edge
	}{
		{"self-transfer", Edge{From: ks[0].Addr, To: ks[0].Addr, Asset: 1, Chain: "c"}},
		{"zero-asset", Edge{From: ks[0].Addr, To: ks[1].Addr, Asset: 0, Chain: "c"}},
		{"no-chain", Edge{From: ks[0].Addr, To: ks[1].Addr, Asset: 1, Chain: ""}},
		{"zero-participant", Edge{From: crypto.ZeroAddress, To: ks[1].Addr, Asset: 1, Chain: "c"}},
	}
	for _, c := range cases {
		if _, err := New(1, c.edge); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := New(1); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestTwoPartyShape(t *testing.T) {
	ks := testKeys(2)
	g, err := TwoParty(1, ks[0].Addr, ks[1].Addr, 10, "bitcoin", 20, "ethereum")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Participants) != 2 || len(g.Edges) != 2 {
		t.Fatalf("|V|=%d |E|=%d", len(g.Participants), len(g.Edges))
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("two-party diameter = %d, want 2 (Figure 10 starts at 2)", d)
	}
	if !g.IsCyclic() {
		t.Fatal("swap graph should be cyclic (A→B→A)")
	}
	if !g.IsWeaklyConnected() {
		t.Fatal("two-party graph disconnected?")
	}
	feasible, leader := g.HerlihyFeasible()
	if !feasible {
		t.Fatal("two-party swap must be Herlihy-feasible")
	}
	if leader != ks[0].Addr && leader != ks[1].Addr {
		t.Fatal("leader not a participant")
	}
	chains := g.Chains()
	if len(chains) != 2 || chains[0] != chain.ID("bitcoin") || chains[1] != chain.ID("ethereum") {
		t.Fatalf("Chains() = %v", chains)
	}
}

func TestRingDiameterEqualsLength(t *testing.T) {
	for n := 2; n <= 9; n++ {
		ks := testKeys(n)
		g, err := Ring(1, addrs(ks), 5, []chain.ID{"c1", "c2", "c3"})
		if err != nil {
			t.Fatal(err)
		}
		if d := g.Diameter(); d != n {
			t.Fatalf("ring(%d) diameter = %d, want %d", n, d, n)
		}
	}
}

func TestRingNotHerlihyFeasibleBeyondTwo(t *testing.T) {
	// A pure ring stays cyclic after removing any single vertex only
	// when it contains another cycle; a simple ring minus one vertex
	// is a path, so simple rings ARE single-leader feasible. Figure
	// 7a's graph has overlapping cycles; model it: two rings sharing
	// vertices.
	ks := testKeys(3)
	a, b, c := ks[0].Addr, ks[1].Addr, ks[2].Addr
	g, err := New(1,
		// ring 1: a→b→c→a
		Edge{From: a, To: b, Asset: 1, Chain: "c1"},
		Edge{From: b, To: c, Asset: 1, Chain: "c2"},
		Edge{From: c, To: a, Asset: 1, Chain: "c3"},
		// reverse ring: a→c→b→a (so removing any one vertex leaves a
		// 2-cycle among the other two)
		Edge{From: a, To: c, Asset: 1, Chain: "c1"},
		Edge{From: c, To: b, Asset: 1, Chain: "c2"},
		Edge{From: b, To: a, Asset: 1, Chain: "c3"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if feasible, _ := g.HerlihyFeasible(); feasible {
		t.Fatal("Figure 7a-style graph must not be single-leader feasible")
	}
	// AC3WN handles it regardless (checked end-to-end in core tests).
	if !g.IsCyclic() {
		t.Fatal("graph should be cyclic")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Figure 7b: two two-party swaps with no edge between the pairs.
	ks := testKeys(4)
	g, err := New(1,
		Edge{From: ks[0].Addr, To: ks[1].Addr, Asset: 10, Chain: "c1"},
		Edge{From: ks[1].Addr, To: ks[0].Addr, Asset: 10, Chain: "c2"},
		Edge{From: ks[2].Addr, To: ks[3].Addr, Asset: 10, Chain: "c3"},
		Edge{From: ks[3].Addr, To: ks[2].Addr, Asset: 10, Chain: "c4"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.IsWeaklyConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if feasible, _ := g.HerlihyFeasible(); feasible {
		t.Fatal("disconnected graph must not be Herlihy-feasible (Section 5.3)")
	}
	if d := g.Diameter(); d != 2 {
		t.Fatalf("diameter of two disjoint swaps = %d, want 2", d)
	}
}

func TestDigestIndependentOfEdgeOrder(t *testing.T) {
	ks := testKeys(3)
	e1 := Edge{From: ks[0].Addr, To: ks[1].Addr, Asset: 1, Chain: "c1"}
	e2 := Edge{From: ks[1].Addr, To: ks[2].Addr, Asset: 2, Chain: "c2"}
	e3 := Edge{From: ks[2].Addr, To: ks[0].Addr, Asset: 3, Chain: "c3"}
	g1, _ := New(9, e1, e2, e3)
	g2, _ := New(9, e3, e1, e2)
	if g1.Digest() != g2.Digest() {
		t.Fatal("digest depends on edge order")
	}
}

func TestDigestSensitivity(t *testing.T) {
	ks := testKeys(2)
	base, _ := TwoParty(1, ks[0].Addr, ks[1].Addr, 10, "c1", 20, "c2")
	mutations := []*Graph{}
	g, _ := TwoParty(2, ks[0].Addr, ks[1].Addr, 10, "c1", 20, "c2") // timestamp
	mutations = append(mutations, g)
	g, _ = TwoParty(1, ks[0].Addr, ks[1].Addr, 11, "c1", 20, "c2") // asset
	mutations = append(mutations, g)
	g, _ = TwoParty(1, ks[0].Addr, ks[1].Addr, 10, "c9", 20, "c2") // chain
	mutations = append(mutations, g)
	for i, m := range mutations {
		if m.Digest() == base.Digest() {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
}

func TestMultisigCompleteOnlyWithAllParticipants(t *testing.T) {
	ks := testKeys(3)
	g, _ := Ring(1, addrs(ks), 5, []chain.ID{"c"})
	ms := crypto.NewMultiSig(g.Digest())
	ms.Add(ks[0])
	ms.Add(ks[1])
	if g.VerifyMultisig(ms, nil) {
		t.Fatal("incomplete multisig verified")
	}
	ms.Add(ks[2])
	if !g.VerifyMultisig(ms, nil) {
		t.Fatal("complete multisig rejected")
	}
	// A multisig over a different graph does not verify.
	other, _ := Ring(2, addrs(ks), 5, []chain.ID{"c"})
	if other.VerifyMultisig(ms, nil) {
		t.Fatal("multisig verified against wrong graph")
	}
	if g.VerifyMultisig(nil, nil) {
		t.Fatal("nil multisig verified")
	}
}

func TestEdgesFromTo(t *testing.T) {
	ks := testKeys(3)
	g, _ := Ring(1, addrs(ks), 5, []chain.ID{"c"})
	in := make(map[crypto.Address]int)
	for _, p := range g.Participants {
		out := g.EdgesFrom(p)
		if len(out) != 1 {
			t.Fatalf("ring vertex %s has %d out edges, want 1", p, len(out))
		}
		in[out[0].To]++
	}
	for _, p := range g.Participants {
		if in[p] != 1 {
			t.Fatalf("ring vertex %s has %d in edges, want 1", p, in[p])
		}
	}
}

// random builds a connected random graph over parts: a spanning ring
// (guaranteeing every vertex participates) plus extra random edges.
func random(t int64, rng *sim.RNG, parts []crypto.Address, extraEdges int, chains []chain.ID) (*Graph, error) {
	g, err := Ring(t, parts, 1, chains)
	if err != nil {
		return nil, err
	}
	edges := g.Edges
	for i := 0; i < extraEdges; i++ {
		u := rng.Intn(len(parts))
		v := rng.Intn(len(parts))
		if u == v {
			continue
		}
		edges = append(edges, Edge{
			From:  parts[u],
			To:    parts[v],
			Asset: vm.Amount(1 + rng.Intn(100)),
			Chain: chains[rng.Intn(len(chains))],
		})
	}
	return New(t, edges...)
}

func TestRandomGraphInvariants(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		ks := testKeys(n)
		g, err := random(int64(trial), rng, addrs(ks), rng.Intn(10), []chain.ID{"c1", "c2"})
		if err != nil {
			t.Fatal(err)
		}
		// Invariants: connected (ring backbone), diameter within
		// [2, n], every participant appears in some edge.
		if !g.IsWeaklyConnected() {
			t.Fatal("random graph with ring backbone disconnected")
		}
		d := g.Diameter()
		if d < 2 || d > n {
			t.Fatalf("diameter %d outside [2,%d]", d, n)
		}
		touched := make(map[crypto.Address]bool)
		for _, e := range g.Edges {
			touched[e.From], touched[e.To] = true, true
		}
		if len(touched) != len(g.Participants) {
			t.Fatal("isolated participant")
		}
		// Digest stability.
		if g.Digest() != g.Digest() {
			t.Fatal("digest not deterministic")
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	ks := testKeys(2)
	if _, err := Ring(1, addrs(ks[:1]), 1, []chain.ID{"c"}); err == nil {
		t.Fatal("1-ring accepted")
	}
	if _, err := Ring(1, addrs(ks), 1, nil); err == nil {
		t.Fatal("ring with no chains accepted")
	}
}

func TestStringRendering(t *testing.T) {
	ks := testKeys(2)
	g, _ := TwoParty(1, ks[0].Addr, ks[1].Addr, 10, "c1", 20, "c2")
	if g.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestDigestGoldenVectors pins Digest to the bytes of the commit before
// the wire codec (ADR-012): ms(D) signs it, so a change would alter
// every SCw deployment. The second graph's encoding (12 edges) runs
// past Digest's stack buffer.
func TestDigestGoldenVectors(t *testing.T) {
	a, b, c := crypto.Address{1}, crypto.Address{2}, crypto.Address{3}
	g, err := New(-7, Edge{From: a, To: b, Asset: 10, Chain: "btc"}, Edge{From: b, To: c, Asset: 1 << 40, Chain: "eth"},
		Edge{From: c, To: a, Asset: 3, Chain: "a-long-chain-identifier"}, Edge{From: a, To: b, Asset: 9, Chain: "btc"})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Digest()
	if got := hex.EncodeToString(d[:]); got != "b833a9398a567d5ced6ffb246251e5aae7ee96952fdafa5a2ad3673aab81a0dd" {
		t.Fatalf("4-edge digest = %s", got)
	}
	var edges []Edge
	for i := 0; i < 12; i++ {
		edges = append(edges, Edge{From: crypto.Address{byte(i + 1)}, To: crypto.Address{byte(i + 2)}, Asset: uint64(i + 1), Chain: "chain-with-a-long-name"})
	}
	if g, err = New(1<<40, edges...); err != nil {
		t.Fatal(err)
	}
	d = g.Digest()
	if got := hex.EncodeToString(d[:]); got != "b505c5024850083fa9a0a7af501d53101ace64b317d6391c33293ff6f0fbb4e7" {
		t.Fatalf("12-edge digest = %s", got)
	}
}
