package merkle

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/crypto"
)

func mkLeaves(n int) []crypto.Hash {
	leaves := make([]crypto.Hash, n)
	for i := range leaves {
		leaves[i] = LeafHash([]byte(fmt.Sprintf("tx-%d", i)))
	}
	return leaves
}

func TestEmptyRootIsZero(t *testing.T) {
	if !Root(nil).IsZero() {
		t.Fatal("empty root is not zero")
	}
}

func TestSingleLeafRoot(t *testing.T) {
	leaves := mkLeaves(1)
	if Root(leaves) != leaves[0] {
		t.Fatal("single-leaf root should be the leaf itself")
	}
}

func TestRootChangesWithAnyLeaf(t *testing.T) {
	for n := 2; n <= 9; n++ {
		leaves := mkLeaves(n)
		base := Root(leaves)
		for i := range leaves {
			mut := append([]crypto.Hash(nil), leaves...)
			mut[i] = LeafHash([]byte("tampered"))
			if Root(mut) == base {
				t.Fatalf("n=%d: root unchanged after mutating leaf %d", n, i)
			}
		}
	}
}

func TestRootDoesNotDependOnCallerSlice(t *testing.T) {
	leaves := mkLeaves(5)
	cp := append([]crypto.Hash(nil), leaves...)
	_ = Root(leaves)
	for i := range leaves {
		if leaves[i] != cp[i] {
			t.Fatal("Root mutated its input")
		}
	}
}

func TestProveEmptyTreeErrors(t *testing.T) {
	if _, err := Prove(nil, 0); err == nil {
		t.Fatal("Prove on an empty tree succeeded")
	}
	if _, err := Prove([]crypto.Hash{}, 0); err == nil {
		t.Fatal("Prove on an empty slice succeeded")
	}
}

func TestSingleLeafProofShape(t *testing.T) {
	leaves := mkLeaves(1)
	root := Root(leaves)
	p, err := Prove(leaves, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Siblings) != 0 || len(p.Lefts) != 0 {
		t.Fatalf("single-leaf proof has %d siblings, want 0", len(p.Siblings))
	}
	if !p.Verify(root) {
		t.Fatal("single-leaf proof rejected")
	}
	if !p.VerifyData(root, []byte("tx-0")) {
		t.Fatal("single-leaf VerifyData rejected original payload")
	}
	// The empty-sibling proof must not verify a different leaf against
	// the same root.
	forged := *p
	forged.Leaf = LeafHash([]byte("other"))
	if forged.Verify(root) {
		t.Fatal("single-leaf proof verified a different leaf")
	}
}

func TestOddLeafCountRoundTrip(t *testing.T) {
	// Odd counts exercise the unpaired-node promotion at every level;
	// every index must round-trip, and the promoted (last) leaf is the
	// historically buggy case.
	for _, n := range []int{3, 5, 7, 9, 11, 13, 33, 65} {
		leaves := mkLeaves(n)
		root := Root(leaves)
		for _, i := range []int{0, n / 2, n - 1} {
			p, err := Prove(leaves, i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !p.Verify(root) {
				t.Fatalf("n=%d i=%d: odd-count proof rejected", n, i)
			}
			if !p.VerifyData(root, []byte(fmt.Sprintf("tx-%d", i))) {
				t.Fatalf("n=%d i=%d: odd-count VerifyData rejected", n, i)
			}
		}
	}
}

func TestSecondPreimageForgedInteriorProof(t *testing.T) {
	// Second-preimage regression: the classic attack presents an
	// interior node's value as a "leaf" and proves membership of data
	// (the concatenated children) that was never committed. The bare
	// hash-chain in Verify cannot tell — it trusts the caller-supplied
	// Leaf — which is exactly why every untrusted-data verification in
	// this repo goes through VerifyData, where domain separation (0x00
	// leaf prefix vs 0x01 node prefix) closes the attack: no raw
	// payload can leaf-hash to an interior node value without a
	// preimage break.
	leaves := mkLeaves(4)
	root := Root(leaves)

	// Interior node over leaves[0..1] as the attacker's fake "leaf",
	// paired with the genuine right interior node as its sibling. The
	// hash chain itself links to the root (documented Verify caveat)…
	interior := crypto.Sum([]byte{0x01}, leaves[0][:], leaves[1][:])
	rightPair := crypto.Sum([]byte{0x01}, leaves[2][:], leaves[3][:])
	forged := &Proof{
		Index:    0,
		Leaf:     interior,
		Siblings: []crypto.Hash{rightPair},
		Lefts:    []bool{false},
	}
	if !forged.Verify(root) {
		t.Fatal("test setup: forged hash chain should link (Verify trusts Leaf)")
	}

	// …but the attack needs VerifyData to accept the children
	// concatenation as committed data, and domain separation forbids
	// that for every candidate encoding of the fake payload.
	fakeData := append(append([]byte{}, leaves[0][:]...), leaves[1][:]...)
	if forged.VerifyData(root, fakeData) {
		t.Fatal("second-preimage forgery: interior node verified as data")
	}
	withPrefix := append([]byte{0x01}, fakeData...)
	if forged.VerifyData(root, withPrefix) {
		t.Fatal("second-preimage forgery via prefixed payload")
	}
	// And a directly leaf-hashed fake payload cannot collide with the
	// interior node value either.
	if LeafHash(fakeData) == interior {
		t.Fatal("leaf hash collided with interior node hash")
	}
}

func TestProveVerifyAllSizesAllIndexes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := mkLeaves(n)
		root := Root(leaves)
		for i := 0; i < n; i++ {
			p, err := Prove(leaves, i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !p.Verify(root) {
				t.Fatalf("n=%d i=%d: valid proof rejected", n, i)
			}
			if !p.VerifyData(root, []byte(fmt.Sprintf("tx-%d", i))) {
				t.Fatalf("n=%d i=%d: VerifyData rejected original payload", n, i)
			}
		}
	}
}

func TestProofRejectsWrongRoot(t *testing.T) {
	leaves := mkLeaves(8)
	p, _ := Prove(leaves, 3)
	other := Root(mkLeaves(9))
	if p.Verify(other) {
		t.Fatal("proof verified against wrong root")
	}
}

func TestProofRejectsWrongData(t *testing.T) {
	leaves := mkLeaves(8)
	root := Root(leaves)
	p, _ := Prove(leaves, 3)
	if p.VerifyData(root, []byte("tx-4")) {
		t.Fatal("proof verified wrong payload")
	}
}

func TestProofTamperedSiblingRejected(t *testing.T) {
	leaves := mkLeaves(16)
	root := Root(leaves)
	for i := 0; i < 16; i++ {
		p, _ := Prove(leaves, i)
		for j := range p.Siblings {
			q, _ := Prove(leaves, i)
			q.Siblings[j] = LeafHash([]byte("evil"))
			if q.Verify(root) {
				t.Fatalf("i=%d: tampered sibling %d accepted", i, j)
			}
		}
	}
}

func TestProofFlippedSideRejected(t *testing.T) {
	leaves := mkLeaves(8)
	root := Root(leaves)
	p, _ := Prove(leaves, 2)
	p.Lefts[0] = !p.Lefts[0]
	if p.Verify(root) {
		t.Fatal("flipped side accepted")
	}
}

func TestProveOutOfRange(t *testing.T) {
	leaves := mkLeaves(4)
	if _, err := Prove(leaves, -1); err == nil {
		t.Fatal("expected error for negative index")
	}
	if _, err := Prove(leaves, 4); err == nil {
		t.Fatal("expected error for index == len")
	}
}

func TestNilAndMalformedProofRejected(t *testing.T) {
	var p *Proof
	if p.Verify(crypto.ZeroHash) {
		t.Fatal("nil proof verified")
	}
	bad := &Proof{Siblings: make([]crypto.Hash, 2), Lefts: make([]bool, 1)}
	if bad.Verify(crypto.ZeroHash) {
		t.Fatal("length-mismatched proof verified")
	}
}

func TestLeafInteriorDomainSeparation(t *testing.T) {
	// An interior node value presented as a leaf must not verify: the
	// prefixes make leaf and node hash spaces disjoint.
	l0 := LeafHash([]byte("a"))
	l1 := LeafHash([]byte("b"))
	interior := crypto.Sum([]byte{0x01}, l0[:], l1[:])
	if LeafHash(append(append([]byte{}, l0[:]...), l1[:]...)) == interior {
		t.Fatal("leaf and interior hashing are not domain separated")
	}
}

func TestPropertyProofRoundTrip(t *testing.T) {
	f := func(payloads [][]byte, idx uint8) bool {
		if len(payloads) == 0 {
			return true
		}
		leaves := make([]crypto.Hash, len(payloads))
		for i, d := range payloads {
			leaves[i] = LeafHash(d)
		}
		root := Root(leaves)
		i := int(idx) % len(payloads)
		p, err := Prove(leaves, i)
		if err != nil {
			return false
		}
		return p.Verify(root) && p.VerifyData(root, payloads[i])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// rootOfData hashes raw leaf payloads and computes their root.
func rootOfData(data [][]byte) crypto.Hash {
	leaves := make([]crypto.Hash, len(data))
	for i, d := range data {
		leaves[i] = LeafHash(d)
	}
	return Root(leaves)
}

func TestPropertyDistinctLeavesDistinctRoots(t *testing.T) {
	f := func(a, b [][]byte) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		same := len(a) == len(b)
		if same {
			for i := range a {
				if string(a[i]) != string(b[i]) {
					same = false
					break
				}
			}
		}
		if same {
			return true
		}
		return rootOfData(a) != rootOfData(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeAndLeafHashingDoNotAllocate pins the per-node cost of every
// tx root and inclusion proof: crypto.Sum joins the prefix and the
// children in a stack buffer.
func TestNodeAndLeafHashingDoNotAllocate(t *testing.T) {
	leaves := mkLeaves(2)
	id := leaves[0]
	var sink crypto.Hash
	if n := testing.AllocsPerRun(100, func() { sink = nodeHash(leaves[0], leaves[1]) }); n != 0 {
		t.Errorf("nodeHash allocates %.0f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = LeafHash(id[:]) }); n != 0 {
		t.Errorf("LeafHash of a tx id allocates %.0f times per call", n)
	}
	_ = sink
}
