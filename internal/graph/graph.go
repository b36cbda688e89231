// Package graph models atomic cross-chain transactions (AC2Ts) as the
// directed graphs of Section 3: D = (V, E) where vertices are
// participants and a directed edge e = (u, v) is a sub-transaction
// transferring asset e.a from u to v on blockchain e.BC.
//
// The package computes the graph diameter Diam(D) that drives the
// latency analysis of Section 6.1, builds the timestamped
// multisignature ms(D) of Equation 1, classifies the complex shapes of
// Section 5.3 (cyclic, disconnected), and generates the workload
// graphs the experiments sweep over.
package graph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Edge is one sub-transaction: transfer Asset from From to To on
// Chain. Participants use one identity across all chains.
type Edge struct {
	From  crypto.Address
	To    crypto.Address
	Asset vm.Amount
	Chain chain.ID
}

// MinEdgeLen is the wire size of an edge with an empty chain id (two
// addresses, the asset amount, the chain id's length prefix); it
// bounds a decoded edge count.
const MinEdgeLen = 2*crypto.AddressSize + 8 + wire.LenPrefix

// EncodedLen is the size of the edge's wire form: From, To, Asset,
// then the chain id behind its u32 length.
func (e *Edge) EncodedLen() int { return MinEdgeLen + len(e.Chain) }

// AppendTo appends the wire form to dst.
func (e *Edge) AppendTo(dst []byte) []byte {
	dst = append(dst, e.From[:]...)
	dst = append(dst, e.To[:]...)
	dst = binary.BigEndian.AppendUint64(dst, e.Asset)
	return wire.AppendString(dst, string(e.Chain))
}

// DecodeFrom reads the wire form; Chain is a view into the reader's
// input (package wire).
func (e *Edge) DecodeFrom(r *wire.Reader) {
	r.Fill(e.From[:])
	r.Fill(e.To[:])
	e.Asset = r.U64()
	e.Chain = chain.ID(r.String())
}

// Graph is a timestamped AC2T graph (D, t). Construct with New, which
// validates shape and derives the participant and chain sets.
type Graph struct {
	Edges        []Edge
	Participants []crypto.Address // derived from edges, sorted, unique
	Timestamp    int64            // the t of Equation 1
	chains       []chain.ID       // derived from edges, sorted, unique
}

// New validates the edges and builds the graph. The timestamp
// distinguishes identical AC2Ts among the same participants.
func New(timestamp int64, edges ...Edge) (*Graph, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("graph: no edges")
	}
	parts := make([]crypto.Address, 0, 2*len(edges))
	chains := make([]chain.ID, 0, len(edges))
	for i, e := range edges {
		switch {
		case e.From == e.To:
			return nil, fmt.Errorf("graph: edge %d is a self-transfer", i)
		case e.From.IsZero() || e.To.IsZero():
			return nil, fmt.Errorf("graph: edge %d has a zero participant", i)
		case e.Asset == 0:
			return nil, fmt.Errorf("graph: edge %d transfers nothing", i)
		case e.Chain == "":
			return nil, fmt.Errorf("graph: edge %d has no blockchain", i)
		}
		parts = append(parts, e.From, e.To)
		chains = append(chains, e.Chain)
	}
	slices.SortFunc(parts, func(a, b crypto.Address) int { return bytes.Compare(a[:], b[:]) })
	slices.Sort(chains)
	return &Graph{
		Edges:        append([]Edge(nil), edges...),
		Participants: slices.Clip(slices.Compact(parts)),
		Timestamp:    timestamp,
		chains:       slices.Clip(slices.Compact(chains)),
	}, nil
}

// compareEdges is the canonical edge order of the digest: by source,
// destination, blockchain, then asset.
func compareEdges(a, b Edge) int {
	if c := bytes.Compare(a.From[:], b.From[:]); c != 0 {
		return c
	}
	if c := bytes.Compare(a.To[:], b.To[:]); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Chain, b.Chain); c != 0 {
		return c
	}
	return cmp.Compare(a.Asset, b.Asset)
}

// Digest canonically encodes (D, t) and hashes it — the message every
// participant signs to form ms(D). Edge order does not affect the
// digest. The edges are sorted in a stack copy (one on the heap past
// eight edges).
func (g *Graph) Digest() crypto.Hash {
	var sorted [8]Edge
	edges := append(sorted[:0], g.Edges...)
	slices.SortFunc(edges, compareEdges)
	var stack [512]byte // a two-party graph encodes to ~150 bytes
	buf := append(stack[:0], "ac2t-graph/v1"...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(g.Timestamp))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = append(buf, e.From[:]...)
		buf = append(buf, e.To[:]...)
		buf = binary.BigEndian.AppendUint64(buf, e.Asset)
		buf = append(buf, e.Chain...)
		buf = append(buf, 0)
	}
	return crypto.Sum(buf)
}

// VerifyMultisig reports whether ms is a complete, valid
// multisignature of this graph by all its participants, taking the
// verdicts sigs holds (nil: none) for the bytes they were computed on.
func (g *Graph) VerifyMultisig(ms *crypto.MultiSig, sigs *crypto.SigBook) bool {
	if ms == nil || ms.Digest != g.Digest() {
		return false
	}
	return ms.CompleteWith(g.Participants, sigs)
}

// index maps participants to dense ids for traversal.
func (g *Graph) index() map[crypto.Address]int {
	idx := make(map[crypto.Address]int, len(g.Participants))
	for i, p := range g.Participants {
		idx[p] = i
	}
	return idx
}

// adjacency builds out-edges by participant id.
func (g *Graph) adjacency() [][]int {
	idx := g.index()
	adj := make([][]int, len(g.Participants))
	for _, e := range g.Edges {
		u, v := idx[e.From], idx[e.To]
		adj[u] = append(adj[u], v)
	}
	return adj
}

// Diameter returns Diam(D): "the length of the longest path from any
// vertex in D to any other vertex in D including itself" — i.e. the
// maximum over ordered pairs (u, v) of the shortest directed path,
// where u = v means the shortest cycle through u. Unreachable pairs
// are skipped (they occur in disconnected graphs). The smallest swap
// (two parties exchanging assets) has diameter 2, matching Figure 10's
// x-axis.
func (g *Graph) Diameter() int {
	adj := g.adjacency()
	n := len(g.Participants)
	diam := 0
	for s := 0; s < n; s++ {
		dist := bfsFrom(adj, n, s)
		for v, d := range dist {
			if d < 0 {
				continue // unreachable
			}
			if v == s && d == 0 {
				continue // replaced by cycle length below
			}
			if d > diam {
				diam = d
			}
		}
		// Shortest cycle through s: 1 + shortest path from any
		// out-neighbour back to s.
		best := -1
		for _, nb := range adj[s] {
			back := bfsFrom(adj, n, nb)
			if back[s] >= 0 {
				if c := 1 + back[s]; best < 0 || c < best {
					best = c
				}
			}
		}
		if best > diam {
			diam = best
		}
	}
	return diam
}

// bfsFrom returns shortest path lengths from s (-1 = unreachable).
func bfsFrom(adj [][]int, n, s int) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// IsWeaklyConnected reports whether the graph is connected ignoring
// edge direction. Figure 7b's disconnected graphs return false.
func (g *Graph) IsWeaklyConnected() bool {
	n := len(g.Participants)
	if n == 0 {
		return true
	}
	idx := g.index()
	und := make([][]int, n)
	for _, e := range g.Edges {
		u, v := idx[e.From], idx[e.To]
		und[u] = append(und[u], v)
		und[v] = append(und[v], u)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range und[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// hasCycleExcluding reports whether the directed graph contains a
// cycle after removing vertex `skip` (-1 removes nothing).
func (g *Graph) hasCycleExcluding(skip int) bool {
	adj := g.adjacency()
	n := len(g.Participants)
	color := make([]int, n) // 0 white, 1 gray, 2 black
	var visit func(int) bool
	visit = func(u int) bool {
		color[u] = 1
		for _, v := range adj[u] {
			if v == skip {
				continue
			}
			if color[v] == 1 {
				return true
			}
			if color[v] == 0 && visit(v) {
				return true
			}
		}
		color[u] = 2
		return false
	}
	for u := 0; u < n; u++ {
		if u == skip || color[u] != 0 {
			continue
		}
		if visit(u) {
			return true
		}
	}
	return false
}

// IsCyclic reports whether the directed graph contains any cycle.
func (g *Graph) IsCyclic() bool { return g.hasCycleExcluding(-1) }

// HerlihyFeasible reports whether Herlihy's single-leader protocol can
// execute this graph: it must be weakly connected, and some leader
// vertex must exist whose removal leaves the graph acyclic (Section
// 5.3: "both protocols require the AC2T graph to be acyclic once the
// leader node is removed" and "fail to handle disconnected graphs").
// The second result names a feasible leader when one exists.
func (g *Graph) HerlihyFeasible() (bool, crypto.Address) {
	if !g.IsWeaklyConnected() {
		return false, crypto.Address{}
	}
	for i, p := range g.Participants {
		if !g.hasCycleExcluding(i) {
			return true, p
		}
	}
	return false, crypto.Address{}
}

// EdgesFrom returns the edges whose source is u.
func (g *Graph) EdgesFrom(u crypto.Address) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.From == u {
			out = append(out, e)
		}
	}
	return out
}

// Chains returns the distinct blockchains the AC2T touches, sorted:
// computed once by New and shared, so callers must not modify it.
func (g *Graph) Chains() []chain.ID { return g.chains }

// String summarizes the graph for logs.
func (g *Graph) String() string {
	return fmt.Sprintf("AC2T{|V|=%d |E|=%d diam=%d t=%d}", len(g.Participants), len(g.Edges), g.Diameter(), g.Timestamp)
}
