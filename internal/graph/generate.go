package graph

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/vm"
)

// TwoParty builds the canonical Alice/Bob swap of Figure 4: a on
// chainA from alice to bob, b on chainB from bob to alice.
func TwoParty(t int64, alice, bob crypto.Address, a vm.Amount, chainA chain.ID, b vm.Amount, chainB chain.ID) (*Graph, error) {
	return New(t,
		Edge{From: alice, To: bob, Asset: a, Chain: chainA},
		Edge{From: bob, To: alice, Asset: b, Chain: chainB},
	)
}

// Ring builds a directed cycle p0 → p1 → … → pn-1 → p0, one asset per
// edge, each edge on chains[i % len(chains)]. A ring of n participants
// has Diam(D) = n, which makes rings the natural workload for the
// Figure 10 diameter sweep; the 3-ring is Figure 7a's cyclic example.
func Ring(t int64, parts []crypto.Address, asset vm.Amount, chains []chain.ID) (*Graph, error) {
	if len(parts) < 2 {
		return nil, fmt.Errorf("graph: ring needs >= 2 participants")
	}
	if len(chains) == 0 {
		return nil, fmt.Errorf("graph: ring needs >= 1 chain")
	}
	edges := make([]Edge, 0, len(parts))
	for i := range parts {
		edges = append(edges, Edge{
			From:  parts[i],
			To:    parts[(i+1)%len(parts)],
			Asset: asset,
			Chain: chains[i%len(chains)],
		})
	}
	return New(t, edges...)
}

// Disconnected builds Figure 7b's shape: the union of independent
// two-party swaps, one per pair, with no edge between pairs.
func Disconnected(t int64, pairs [][2]crypto.Address, asset vm.Amount, chains []chain.ID) (*Graph, error) {
	if len(pairs) < 2 {
		return nil, fmt.Errorf("graph: need >= 2 pairs to be disconnected")
	}
	if len(chains) < 2 {
		return nil, fmt.Errorf("graph: need >= 2 chains")
	}
	var edges []Edge
	for i, p := range pairs {
		ca := chains[(2*i)%len(chains)]
		cb := chains[(2*i+1)%len(chains)]
		edges = append(edges,
			Edge{From: p[0], To: p[1], Asset: asset, Chain: ca},
			Edge{From: p[1], To: p[0], Asset: asset, Chain: cb},
		)
	}
	return New(t, edges...)
}
