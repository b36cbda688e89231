package contracts

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/vm"
)

// The small world MatchEdges is tested in: three parties, two chains,
// two amounts, and the wanted binding beside one foreign variant per
// field (index 0 is the wanted one).
var (
	matchParties  = [3]crypto.Address{{1}, {2}, {3}}
	matchChains   = [2]chain.ID{"c0", "c1"}
	matchAssets   = [2]vm.Amount{10, 20}
	matchWant     = Binding{Witness: crypto.Address{0xA}, MSID: crypto.Hash{0xB}, Chain: "w", Depth: 2}
	matchBindings = [6]Binding{
		matchWant,
		{Witness: crypto.Address{0xF}, MSID: matchWant.MSID, Chain: "w", Depth: 2},
		{Witness: matchWant.Witness, MSID: crypto.Hash{0xF}, Chain: "w", Depth: 2},
		{Witness: matchWant.Witness, MSID: matchWant.MSID, Chain: "x", Depth: 2},
		{Witness: matchWant.Witness, MSID: matchWant.MSID, Chain: "w", Depth: 1},
		{Witness: matchWant.Witness, MSID: matchWant.MSID, Chain: "w", Depth: 2, Batch: crypto.Address{0xBA}},
	}
)

// matchEdge decodes one spec byte, mod 36, into an edge: sender b%3,
// recipient b/3%3, chain b/9%2, asset b/18.
func matchEdge(b byte) graph.Edge {
	b %= 36
	return graph.Edge{From: matchParties[b%3], To: matchParties[b/3%3], Chain: matchChains[b/9%2], Asset: matchAssets[b/18]}
}

// matchSpec decodes edge bytes and lock triples (the edge fields the
// lock claims, its chain bit unread since a lock is read on its edge's
// chain; its address mod 4; its binding mod 6). Trailing bytes short of
// a triple are dropped.
func matchSpec(edgeSpec, lockSpec []byte) ([]graph.Edge, []Lock) {
	edges := make([]graph.Edge, len(edgeSpec))
	for i, b := range edgeSpec {
		edges[i] = matchEdge(b)
	}
	locks := make([]Lock, len(lockSpec)/3)
	for i := range locks {
		e := matchEdge(lockSpec[3*i])
		locks[i] = Lock{
			ID: crypto.Address{lockSpec[3*i+1] % 4}, Sender: e.From, Recipient: e.To, Asset: e.Asset,
			Binding: matchBindings[lockSpec[3*i+2]%6],
		}
	}
	return edges, locks
}

// matchAcceptable is FuzzMatchEdges' oracle, written over the spec
// bytes rather than the decoded values: the locks map one-to-one onto
// the edges — one lock per edge, lock i claiming exactly edge i's
// sender, recipient and asset under the wanted binding, and no
// (edge chain, address) pair claimed by two edges.
func matchAcceptable(edgeSpec, lockSpec []byte) bool {
	if len(lockSpec)/3 != len(edgeSpec) {
		return false
	}
	parties := func(b byte) byte { b %= 36; return b%9 + 9*(b/18) } // all but the chain bit
	claimed := make(map[[2]byte]bool)
	for i, e := range edgeSpec {
		fields, id, binding := lockSpec[3*i], lockSpec[3*i+1]%4, lockSpec[3*i+2]%6
		at := [2]byte{e % 36 / 9 % 2, id}
		if parties(fields) != parties(e) || binding != 0 || claimed[at] {
			return false
		}
		claimed[at] = true
	}
	return true
}

// Spec bytes for the edges the table uses (sender + 3·recipient +
// 9·chain + 18·asset): party 1 → 2 on c0 for 10, and 2 → 1 on c1 for 20.
const (
	ab0 = 0 + 3*1 + 9*0 + 18*0
	ba1 = 1 + 3*0 + 9*1 + 18*1
)

// matchCases is one entry per mutation class of what a malicious
// prover submits, each with the error MatchEdges gives. They are
// FuzzMatchEdges' corpus too.
var matchCases = []struct {
	name         string
	edges, locks []byte
	err          string
}{
	{"honest", []byte{ab0, ba1}, []byte{ab0, 0, 0, ba1, 0, 0}, ""},
	{"two identical edges, two locks", []byte{ab0, ab0, ba1}, []byte{ab0, 0, 0, ab0, 1, 0, ba1, 0, 0}, ""},
	{"a lock reused for two edges", []byte{ab0, ab0, ba1}, []byte{ab0, 0, 0, ab0, 0, 0, ba1, 0, 0},
		"edge 1: contract 0000000000000000000000000000000000000000 already proves edge 0"},
	{"permuted locks", []byte{ab0, ba1}, []byte{ba1, 1, 0, ab0, 0, 0},
		"edge 0: locked by 0200000000000000000000000000000000000000, edge source is 0100000000000000000000000000000000000000"},
	{"a lock missing", []byte{ab0, ba1}, []byte{ab0, 0, 0}, "1 contracts for 2 edges"},
	{"wrong amount", []byte{ab0, ba1}, []byte{ab0 + 18, 0, 0, ba1, 0, 0}, "edge 0: locks 20, edge specifies 10"},
	{"wrong sender", []byte{ab0, ba1}, []byte{ab0 + 2, 0, 0, ba1, 0, 0},
		"edge 0: locked by 0300000000000000000000000000000000000000, edge source is 0100000000000000000000000000000000000000"},
	{"wrong recipient", []byte{ab0, ba1}, []byte{ab0 + 3, 0, 0, ba1, 0, 0},
		"edge 0: recipient 0300000000000000000000000000000000000000, edge specifies 0200000000000000000000000000000000000000"},
	{"one address on two chains", []byte{ab0, ab0 + 9}, []byte{ab0, 0, 0, ab0, 0, 0}, ""},
	{"one address moved onto one chain", []byte{ab0, ab0}, []byte{ab0, 0, 0, ab0 + 9, 0, 0},
		"edge 1: contract 0000000000000000000000000000000000000000 already proves edge 0"},
	{"foreign witness", []byte{ab0, ba1}, []byte{ab0, 0, 1, ba1, 0, 0},
		"edge 0: conditioned on {Witness:0f00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:w Depth:2 Batch:0000000000000000000000000000000000000000}, agreed {Witness:0a00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:w Depth:2 Batch:0000000000000000000000000000000000000000}"},
	{"foreign ms(D)", []byte{ab0, ba1}, []byte{ab0, 0, 0, ba1, 0, 2},
		"edge 1: conditioned on {Witness:0a00000000000000000000000000000000000000 MSID:0f00000000000000 Chain:w Depth:2 Batch:0000000000000000000000000000000000000000}, agreed {Witness:0a00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:w Depth:2 Batch:0000000000000000000000000000000000000000}"},
	{"foreign witness chain", []byte{ab0, ba1}, []byte{ab0, 0, 3, ba1, 0, 0},
		"edge 0: conditioned on {Witness:0a00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:x Depth:2 Batch:0000000000000000000000000000000000000000}, agreed {Witness:0a00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:w Depth:2 Batch:0000000000000000000000000000000000000000}"},
	{"foreign depth", []byte{ab0, ba1}, []byte{ab0, 0, 4, ba1, 0, 0},
		"edge 0: conditioned on {Witness:0a00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:w Depth:1 Batch:0000000000000000000000000000000000000000}, agreed {Witness:0a00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:w Depth:2 Batch:0000000000000000000000000000000000000000}"},
	{"non-zero batch", []byte{ab0, ba1}, []byte{ab0, 0, 5, ba1, 0, 0},
		"edge 0: conditioned on {Witness:0a00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:w Depth:2 Batch:ba00000000000000000000000000000000000000}, agreed {Witness:0a00000000000000000000000000000000000000 MSID:0b00000000000000 Chain:w Depth:2 Batch:0000000000000000000000000000000000000000}"},
}

// TestMatchEdges pins the rule's error for each mutation class, the
// text SCw and Trent wrap into their rejections.
func TestMatchEdges(t *testing.T) {
	for _, tc := range matchCases {
		edges, locks := matchSpec(tc.edges, tc.locks)
		got := ""
		if err := MatchEdges(edges, locks, matchWant); err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Errorf("%s: error %q, want %q", tc.name, got, tc.err)
		}
		if (got == "") != matchAcceptable(tc.edges, tc.locks) {
			t.Errorf("%s: the oracle disagrees", tc.name)
		}
	}
}

// FuzzMatchEdges checks MatchEdges against its oracle on up to four
// edges and four locks drawn from the small world above.
func FuzzMatchEdges(f *testing.F) {
	for _, tc := range matchCases {
		f.Add(tc.edges, tc.locks)
	}
	f.Fuzz(func(t *testing.T, edgeSpec, lockSpec []byte) {
		edgeSpec = edgeSpec[:min(len(edgeSpec), 4)]
		lockSpec = lockSpec[:min(len(lockSpec)/3, 4)*3]
		edges, locks := matchSpec(edgeSpec, lockSpec)
		err := MatchEdges(edges, locks, matchWant)
		if (err == nil) != matchAcceptable(edgeSpec, lockSpec) {
			t.Fatalf("edges %v, locks %v: MatchEdges = %v, oracle accepts %v", edgeSpec, lockSpec, err, matchAcceptable(edgeSpec, lockSpec))
		}
	})
}
