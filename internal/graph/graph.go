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

// id is a participant's dense vertex id, its index in Participants.
func (g *Graph) id(a crypto.Address) int {
	i, _ := slices.BinarySearchFunc(g.Participants, a, func(p, a crypto.Address) int { return bytes.Compare(p[:], a[:]) })
	return i
}

// paths returns the n×n matrix of shortest directed path lengths over
// the edges, those touching vertex skip left out (-1: none), each also
// taken backwards when undirected: row u holds the paths from u, and
// the diagonal the shortest cycle through each vertex; a length above n
// means there is none. It is one Floyd–Warshall pass, in buf up to eight
// participants and on the heap past them.
func (g *Graph) paths(buf *[64]int, skip int, undirected bool) []int {
	n := len(g.Participants)
	d := buf[:]
	if n*n > len(d) {
		d = make([]int, n*n)
	}
	d = d[:n*n]
	for i := range d {
		d[i] = n + 1
	}
	for _, e := range g.Edges {
		if u, v := g.id(e.From), g.id(e.To); u != skip && v != skip {
			d[u*n+v] = 1
			if undirected {
				d[v*n+u] = 1
			}
		}
	}
	for k := range n {
		for u := range n {
			for v := range n {
				d[u*n+v] = min(d[u*n+v], d[u*n+k]+d[k*n+v])
			}
		}
	}
	return d
}

// Diameter returns Diam(D): "the length of the longest path from any
// vertex in D to any other vertex in D including itself" — i.e. the
// maximum over ordered pairs (u, v) of the shortest directed path,
// where u = v means the shortest cycle through u. Unreachable pairs
// are skipped (they occur in disconnected graphs). The smallest swap
// (two parties exchanging assets) has diameter 2, matching Figure 10's
// x-axis.
func (g *Graph) Diameter() int {
	var buf [64]int
	diam, n := 0, len(g.Participants)
	for _, l := range g.paths(&buf, -1, false) {
		if l <= n {
			diam = max(diam, l)
		}
	}
	return diam
}

// Layers appends to layers, for each edge in Edges order, the step in
// which a single-leader protocol deploys it: the length of the shortest
// directed path from leader to the edge's source (-1: unreachable).
func (g *Graph) Layers(leader crypto.Address, layers []int) []int {
	var buf [64]int
	n, l := len(g.Participants), g.id(leader)
	d := g.paths(&buf, -1, false)[l*n : (l+1)*n]
	d[l] = 0 // the leader itself, not the cycle through it
	for _, e := range g.Edges {
		if k := d[g.id(e.From)]; k <= n {
			layers = append(layers, k)
		} else {
			layers = append(layers, -1)
		}
	}
	return layers
}

// IsWeaklyConnected reports whether the graph is connected ignoring
// edge direction. Figure 7b's disconnected graphs return false.
func (g *Graph) IsWeaklyConnected() bool {
	var buf [64]int
	n := len(g.Participants)
	for _, l := range g.paths(&buf, -1, true)[:n] {
		if l > n {
			return false
		}
	}
	return true
}

// cyclicWithout reports whether the directed graph has a cycle that
// avoids vertex skip (-1: any cycle).
func (g *Graph) cyclicWithout(buf *[64]int, skip int) bool {
	n := len(g.Participants)
	d := g.paths(buf, skip, false)
	for u := range n {
		if d[u*n+u] <= n {
			return true
		}
	}
	return false
}

// IsCyclic reports whether the directed graph contains any cycle.
func (g *Graph) IsCyclic() bool {
	var buf [64]int
	return g.cyclicWithout(&buf, -1)
}

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
	var buf [64]int
	for i, p := range g.Participants {
		if !g.cyclicWithout(&buf, i) {
			return true, p
		}
	}
	return false, crypto.Address{}
}

// Chains returns the distinct blockchains the AC2T touches, sorted:
// computed once by New and shared, so callers must not modify it.
func (g *Graph) Chains() []chain.ID { return g.chains }

// String summarizes the graph for logs.
func (g *Graph) String() string {
	return fmt.Sprintf("AC2T{|V|=%d |E|=%d diam=%d t=%d}", len(g.Participants), len(g.Edges), g.Diameter(), g.Timestamp)
}
