package crypto

import (
	"bytes"
	"crypto/sha256"
	"sort"
	"testing"
)

// TestSumMatchesStreamingSHA256 compares Sum with the streaming hasher
// it replaced, across the single-part path, the 256-byte stack buffer
// and the spill past it.
func TestSumMatchesStreamingSHA256(t *testing.T) {
	blob := make([]byte, 1000)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	cases := [][][]byte{
		nil,
		{nil},
		{blob[:1]},
		{blob[:98]}, // a header
		{blob[:1000]},
		{nil, nil},
		{blob[:1], blob[1:33], blob[33:65]}, // a merkle node
		{blob[:100], blob[100:255]},
		{blob[:100], blob[100:256]},
		{blob[:100], blob[100:257]},
		{blob[:300], nil, blob[300:1000]},
	}
	for i, parts := range cases {
		h := sha256.New()
		for _, p := range parts {
			h.Write(p)
		}
		var want Hash
		copy(want[:], h.Sum(nil))
		if got := Sum(parts...); got != want {
			t.Errorf("case %d: Sum = %s, want %s", i, got, want)
		}
	}
}

func TestSumSmallInputsDoNotAllocate(t *testing.T) {
	blob := make([]byte, 256)
	big := make([]byte, 10<<10) // a transaction body: streamed, not gathered
	var sink Hash
	for name, fn := range map[string]func(){
		"five parts, 10 kB": func() { sink = Sum(big[:50], big[50:4000], big[4000:4100], big[4100:], blob[:8]) },
		"one part":          func() { sink = Sum(blob[:98]) },
		"one part, 256 B":   func() { sink = Sum(blob) },
		"three parts, 65 B": func() { sink = Sum(blob[:1], blob[1:33], blob[33:65]) },
		"two parts, 256 B":  func() { sink = Sum(blob[:100], blob[100:]) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("Sum(%s) allocates %.0f times per call", name, n)
		}
	}
	_ = sink
}

// referenceMultiSigID is ID() as it was first written: the digest
// followed by every signature's signer address, sorted, duplicates
// kept.
func referenceMultiSigID(digest Hash, signers []Address) Hash {
	sorted := append([]Address(nil), signers...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i][:], sorted[j][:]) < 0 })
	h := sha256.New()
	h.Write(digest[:])
	for _, a := range sorted {
		h.Write(a[:])
	}
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// TestMultiSigIDFromAddresses is the property core.verifySCw rests on:
// the id of ms(D) follows from the digest and the signers' addresses,
// whatever order they signed in.
func TestMultiSigIDFromAddresses(t *testing.T) {
	keys := []*KeyPair{testKey(t, 40), testKey(t, 41), testKey(t, 42), testKey(t, 43)}
	digest := Sum([]byte("(D, t)"))
	var permute func(k int, order []int)
	orders := 0
	permute = func(k int, order []int) {
		if k == len(order) {
			orders++
			ms := NewMultiSig(digest)
			addrs := make([]Address, 0, len(order))
			for _, i := range order {
				ms.Add(keys[i])
				addrs = append(addrs, keys[i].Addr)
			}
			given := append([]Address(nil), addrs...)
			id := MultiSigID(digest, addrs)
			if id != ms.ID() || id != referenceMultiSigID(digest, addrs) {
				t.Fatalf("order %v: MultiSigID %s, ms.ID %s", order, id, ms.ID())
			}
			for i := range addrs {
				if addrs[i] != given[i] {
					t.Fatalf("MultiSigID reordered its argument")
				}
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(k+1, order)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0, []int{0, 1, 2, 3})
	if orders != 24 {
		t.Fatalf("checked %d signing orders, want 24", orders)
	}

	a, b, c := keys[0], keys[1], keys[2]
	full := NewMultiSig(digest)
	full.Add(a)
	full.Add(b)
	// An extra address names a different signer set, as with ID().
	if MultiSigID(digest, []Address{a.Addr, b.Addr, c.Addr}) == full.ID() {
		t.Fatal("an extra signer address left the id unchanged")
	}
	full.Add(c)
	if MultiSigID(digest, []Address{c.Addr, a.Addr, b.Addr}) != full.ID() {
		t.Fatal("id differs once the extra signer has signed")
	}
	// ID() does not dedupe a signer that appears twice in Sigs (Add
	// never produces that; a decoded multisig can), and
	// MultiSigID treats a repeated address the same way.
	dup := &MultiSig{Digest: digest, Sigs: []Signature{a.Sign(digest[:]), b.Sign(digest[:]), a.Sign(digest[:])}}
	if got := MultiSigID(digest, []Address{a.Addr, b.Addr, a.Addr}); got != dup.ID() {
		t.Fatalf("duplicate address: MultiSigID %s, ID %s", got, dup.ID())
	}
	if MultiSigID(digest, []Address{a.Addr, b.Addr}) == dup.ID() {
		t.Fatal("duplicate signer collapsed")
	}
	if MultiSigID(Sum([]byte("(D, t+1)")), []Address{a.Addr, b.Addr, c.Addr}) == full.ID() {
		t.Fatal("id ignores the digest")
	}
}

// TestMultiSigStructuralRejections covers the checks that now run
// before any signature is verified; the verdicts are the ones the
// verify-first order gave.
func TestMultiSigStructuralRejections(t *testing.T) {
	alice, bob, carol := testKey(t, 50), testKey(t, 51), testKey(t, 52)
	digest := Sum([]byte("d"))
	required := []Address{alice.Addr, bob.Addr}

	truncate := func(s Signature) Signature { s.Sig = s.Sig[:63]; return s }
	shortKey := func(s Signature) Signature { s.Pub = s.Pub[:31]; return s }

	for name, sigs := range map[string][]Signature{
		"truncated signature":        {alice.Sign(digest[:]), truncate(bob.Sign(digest[:]))},
		"short public key":           {alice.Sign(digest[:]), bob.Sign(digest[:]), shortKey(carol.Sign(digest[:]))},
		"malformed outsider":         {alice.Sign(digest[:]), bob.Sign(digest[:]), truncate(carol.Sign(digest[:]))},
		"missing signer":             {alice.Sign(digest[:]), carol.Sign(digest[:])},
		"missing signer, bad extra":  {alice.Sign(digest[:]), carol.Sign([]byte("other"))},
		"all present, one bad curve": {alice.Sign(digest[:]), bob.Sign([]byte("other"))},
	} {
		ms := &MultiSig{Digest: digest, Sigs: sigs}
		if ms.Complete(required) {
			t.Errorf("%s: Complete accepted", name)
		}
		if ms.CompleteThreshold(required, 2) {
			t.Errorf("%s: CompleteThreshold(2) accepted", name)
		}
	}
	// A quorum short of signers is rejected, and an invalid signature
	// still poisons a quorum that is otherwise met.
	ms := &MultiSig{Digest: digest, Sigs: []Signature{alice.Sign(digest[:]), carol.Sign([]byte("other"))}}
	if ms.CompleteThreshold(required, 1) {
		t.Error("invalid outsider signature did not poison a met quorum")
	}
	ms.Sigs = ms.Sigs[:1]
	if !ms.CompleteThreshold(required, 1) || ms.CompleteThreshold(required, 2) {
		t.Error("1-of-2 with one valid signer misjudged")
	}
}
