package graph

import (
	"encoding/hex"
	"slices"
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

// TestLayersOnARing: on a ring every vertex sends one edge and
// receives one, and the edge from the vertex k hops past the leader
// deploys in step k.
func TestLayersOnARing(t *testing.T) {
	ks := testKeys(5)
	g, _ := Ring(1, addrs(ks), 5, []chain.ID{"c"})
	in, out := make(map[crypto.Address]int), make(map[crypto.Address]int)
	for _, e := range g.Edges {
		out[e.From]++
		in[e.To]++
	}
	for _, p := range g.Participants {
		if in[p] != 1 || out[p] != 1 {
			t.Fatalf("ring vertex %s has %d in and %d out edges, want 1 and 1", p, in[p], out[p])
		}
	}
	leader := g.Participants[2]
	layers := g.Layers(leader, nil)
	for i, e := range g.Edges {
		hops, at := 0, leader
		for at != e.From {
			at = g.Edges[slices.IndexFunc(g.Edges, func(f Edge) bool { return f.From == at })].To
			hops++
		}
		if layers[i] != hops {
			t.Fatalf("edge %d leaves a vertex %d hops past the leader, deploys in step %d", i, hops, layers[i])
		}
	}
}

// refAdjacency, refBFS, refDiameter and refHasCycleExcluding are the
// analyses as first written — an index map, adjacency lists and a queue
// per search, a recursive depth-first search — kept as the reference
// the stack-buffered ones are held to.
func refAdjacency(g *Graph) (map[crypto.Address]int, [][]int) {
	idx := make(map[crypto.Address]int)
	for i, p := range g.Participants {
		idx[p] = i
	}
	adj := make([][]int, len(g.Participants))
	for _, e := range g.Edges {
		adj[idx[e.From]] = append(adj[idx[e.From]], idx[e.To])
	}
	return idx, adj
}

func refBFS(adj [][]int, s int) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
		for _, v := range adj[queue[0]] {
			if dist[v] < 0 {
				dist[v] = dist[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func refDiameter(adj [][]int) int {
	diam := 0
	for s := range adj {
		for v, d := range refBFS(adj, s) {
			if v != s && d > diam {
				diam = d
			}
		}
		best := -1
		for _, nb := range adj[s] {
			if back := refBFS(adj, nb)[s]; back >= 0 && (best < 0 || back+1 < best) {
				best = back + 1
			}
		}
		diam = max(diam, best)
	}
	return diam
}

func refHasCycleExcluding(adj [][]int, skip int) bool {
	color := make([]int, len(adj)) // 0 white, 1 gray, 2 black
	var visit func(int) bool
	visit = func(u int) bool {
		color[u] = 1
		for _, v := range adj[u] {
			if v != skip && (color[v] == 1 || color[v] == 0 && visit(v)) {
				return true
			}
		}
		color[u] = 2
		return false
	}
	for u := range adj {
		if u != skip && color[u] == 0 && visit(u) {
			return true
		}
	}
	return false
}

// checkAgainstReference holds every analysis of g to the reference.
func checkAgainstReference(t *testing.T, g *Graph) {
	t.Helper()
	idx, adj := refAdjacency(g)
	if got, want := g.Diameter(), refDiameter(adj); got != want {
		t.Fatalf("%s: Diameter %d, the reference %d", g, got, want)
	}
	for _, p := range g.Participants {
		dist, layers := refBFS(adj, idx[p]), g.Layers(p, nil)
		for i, e := range g.Edges {
			if layers[i] != dist[idx[e.From]] {
				t.Fatalf("%s: edge %d in layer %d from %s, the reference's BFS distance is %d", g, i, layers[i], p, dist[idx[e.From]])
			}
		}
	}
	if got, want := g.IsCyclic(), refHasCycleExcluding(adj, -1); got != want {
		t.Fatalf("%s: IsCyclic %v, the reference %v", g, got, want)
	}
	connected := !slices.Contains(refBFS(adjUndirected(adj), 0), -1)
	if g.IsWeaklyConnected() != connected {
		t.Fatalf("%s: IsWeaklyConnected %v, the reference %v", g, !connected, connected)
	}
	feasible, leader := g.HerlihyFeasible()
	want := -1
	for i := range adj {
		if connected && !refHasCycleExcluding(adj, i) {
			want = i
			break
		}
	}
	if feasible != (want >= 0) || feasible && leader != g.Participants[want] {
		t.Fatalf("%s: HerlihyFeasible %v, %s; the reference's first leader is %d", g, feasible, leader, want)
	}
}

func adjUndirected(adj [][]int) [][]int {
	und := make([][]int, len(adj))
	for u, vs := range adj {
		for _, v := range vs {
			und[u], und[v] = append(und[u], v), append(und[v], u)
		}
	}
	return und
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
		// Chains is the distinct edge chains, sorted.
		var chains []chain.ID
		for _, e := range g.Edges {
			if !slices.Contains(chains, e.Chain) {
				chains = append(chains, e.Chain)
			}
		}
		slices.Sort(chains)
		if !slices.Equal(g.Chains(), chains) {
			t.Fatalf("Chains() = %v, the edges' chains are %v", g.Chains(), chains)
		}
		// Digest stability.
		if g.Digest() != g.Digest() {
			t.Fatal("digest not deterministic")
		}
		// Every analysis against the reference: on the graph, on one
		// with a second component beside it, and on the two joined by
		// one edge either way (weakly connected, not strongly).
		checkAgainstReference(t, g)
		other, err := random(int64(trial), rng, addrs(testKeys(11)[9:]), rng.Intn(3), []chain.ID{"c3"})
		if err != nil {
			t.Fatal(err)
		}
		u, v := g.Participants[rng.Intn(len(g.Participants))], other.Participants[rng.Intn(2)]
		for _, join := range [][]Edge{nil, {{From: u, To: v, Asset: 1, Chain: "c3"}}, {{From: v, To: u, Asset: 1, Chain: "c3"}}} {
			two, err := New(g.Timestamp, slices.Concat(g.Edges, other.Edges, join)...)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, two)
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
// past Digest's stack buffer, and its edges past the stack copy Digest
// sorts them in: given in reverse, they hash the same.
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
	slices.Reverse(edges)
	if g, err = New(1<<40, edges...); err != nil {
		t.Fatal(err)
	}
	d = g.Digest()
	if got := hex.EncodeToString(d[:]); got != "b505c5024850083fa9a0a7af501d53101ace64b317d6391c33293ff6f0fbb4e7" {
		t.Fatalf("12-edge digest, edges reversed = %s", got)
	}
}

// TestDigestAndChainsAllocateNothing: Digest sorts up to eight edges in
// a stack copy, and Chains is computed once, by New.
func TestDigestAndChainsAllocateNothing(t *testing.T) {
	ks := testKeys(8)
	g, err := Ring(1, addrs(ks), 10, []chain.ID{"c2", "c1", "c3"})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { g.Digest(); g.Chains() }); n != 0 {
		t.Fatalf("Digest + Chains of an 8-edge graph: %v allocations, want 0", n)
	}
}

// TestAnalysesAllocateNothing: up to eight participants, every
// analysis runs in buffers on its own stack.
func TestAnalysesAllocateNothing(t *testing.T) {
	ks := testKeys(8)
	g, err := random(1, sim.NewRNG(3), addrs(ks), 8, []chain.ID{"c1", "c2"})
	if err != nil {
		t.Fatal(err)
	}
	var buf [16]int
	if n := testing.AllocsPerRun(100, func() {
		g.Diameter()
		g.IsCyclic()
		g.HerlihyFeasible()
		g.Layers(ks[0].Addr, buf[:0])
	}); n != 0 {
		t.Fatalf("the analyses of an 8-party, %d-edge graph: %v allocations, want 0", len(g.Edges), n)
	}
}
