package chain

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
)

// count returns the number of entries in tb.
func count[K tableKey, V any](tb *table[K, V]) (n int) {
	for range tb.scan(*new(K), 0) {
		n++
	}
	return n
}

// checkShape walks a table and fails on any broken structural
// invariant: the keys below a branch agree on every digit before the
// branch's own and sit under the child their digit there names, a
// branch has two distinct children at least and tests a later digit
// than the branch above it, a bucket is sorted, non-empty and serves an
// aligned power-of-two run of children.
func checkShape[K tableKey, V any](t testing.TB, tb *table[K, V]) {
	t.Helper()
	var walk func(s *slot[K, V], lowest int)
	walk = func(s *slot[K, V], lowest int) {
		if br := s.br; br != nil {
			if s.bk != nil {
				t.Fatal("slot holds a branch and a bucket")
			}
			if br.pos < lowest {
				t.Fatalf("branch on digit %d below a branch on digit %d", br.pos, lowest-1)
			}
			distinct := 0
			var first *K
			for i := 0; i < fanout; {
				r := br.span(i)
				lo, hi := r.lo, r.hi
				if lo != i {
					t.Fatalf("run of children starting at %d is not aligned (span %d..%d)", i, lo, hi)
				}
				if kid := &br.kids[i]; !kid.empty() {
					distinct++
					if kid.br != nil && hi-lo != 1 {
						t.Fatalf("branch serves children %d..%d", lo, hi)
					}
					for k := range (&table[K, V]{root: *kid}).scan(*new(K), 0) {
						if d := digit(k, br.pos); d < lo || d >= hi {
							t.Fatalf("key %x has digit %d = %d, outside its run %d..%d", k, br.pos, d, lo, hi)
						}
						if first == nil {
							first = &k
						} else if diverge(*first, k) < br.pos {
							t.Fatalf("keys %x and %x under one branch on digit %d part before it", *first, k, br.pos)
						}
					}
					walk(kid, br.pos+1)
				}
				i = hi
			}
			if distinct < 2 {
				t.Fatalf("branch on digit %d has %d distinct children", br.pos, distinct)
			}
			return
		}
		b := s.bk
		if b == nil {
			return
		}
		if b.n < 1 || b.n > bucketSize {
			t.Fatalf("bucket holds %d entries", b.n)
		}
		for i := 1; i < b.n; i++ {
			if !less(b.keys[i-1], b.keys[i]) {
				t.Fatalf("bucket out of order at entry %d", i)
			}
		}
	}
	walk(&tb.root, 0)
}

// tableOps drives a table and a few snapshots of it from a byte
// string, against plain maps: put, delete, get, snapshot, switch to a
// snapshot, iterate, scan a prefix. Each operation is an opcode byte
// and two key bytes; the key shape comes from the opcode's top bits so
// mutated inputs reach low-entropy keys, keys sharing a long prefix and
// digest-like keys alike.
func tableOps(t testing.TB, data []byte) {
	type version struct {
		tb  table[utxoKey, int]
		gen uint64
		ref map[utxoKey]int
	}
	gens := uint64(0)
	nextGen := func() uint64 { gens++; return gens }
	vs := []*version{{gen: nextGen(), ref: make(map[utxoKey]int)}}
	cur := vs[0]
	key := func(shape, a, b byte) (k utxoKey) {
		switch shape {
		case 0: // a counter at the end, like the benchmark's outpoints
			k[utxoKeyLen-1] = a & 0x3F
		case 1: // the two ends
			k[0], k[utxoKeyLen-1] = a, b&3
		case 2: // a digest, a few outputs each
			h := crypto.Sum([]byte{a})
			copy(k[:], h[:])
			k[utxoKeyLen-1] = b & 3
		default: // a long shared prefix, parting mid-key
			for i := range 17 {
				k[i] = 0xAB
			}
			k[17], k[18] = a&0x1F, b&0x11
		}
		return k
	}
	verify := func(v *version) {
		want := make([]utxoKey, 0, len(v.ref))
		for k := range v.ref {
			want = append(want, k)
		}
		slices.SortFunc(want, func(a, b utxoKey) int { return slices.Compare(a[:], b[:]) })
		i := 0
		for k, val := range v.tb.scan(utxoKey{}, 0) {
			if i >= len(want) || k != want[i] || val != v.ref[k] {
				t.Fatalf("entry %d of the iteration is %x=%d; the sorted map disagrees", i, k, val)
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("iteration yielded %d entries, want %d", i, len(want))
		}
		checkShape(t, &v.tb)
	}
	for step := 0; len(data) >= 3; step++ {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		k := key(op>>6, a, b)
		switch op & 7 {
		case 0, 1, 2:
			cur.tb.put(cur.gen, k, step)
			cur.ref[k] = step
		case 3:
			old, ok := cur.tb.del(cur.gen, k)
			if want, had := cur.ref[k]; ok != had || old != want {
				t.Fatalf("step %d: del(%x) = %d, %v; the map held %d, %v", step, k, old, ok, want, had)
			}
			delete(cur.ref, k)
		case 4:
			got, ok := cur.tb.get(k)
			if want, had := cur.ref[k]; ok != had || got != want {
				t.Fatalf("step %d: get(%x) = %d, %v; the map holds %d, %v", step, k, got, ok, want, had)
			}
		case 5: // snapshot: both sides move to generations of their own
			if len(vs) < 6 {
				snap := &version{tb: cur.tb, gen: nextGen(), ref: make(map[utxoKey]int, len(cur.ref))}
				for k, v := range cur.ref {
					snap.ref[k] = v
				}
				cur.gen = nextGen()
				vs = append(vs, snap)
			}
		case 6:
			cur = vs[int(a)%len(vs)]
		case 7:
			digits := int(b) % (2*utxoKeyLen + 1)
			want := 0
			for r := range cur.ref {
				if diverge(r, k) >= digits {
					want++
				}
			}
			got := 0
			var last utxoKey
			for sk, val := range cur.tb.scan(k, digits) {
				if diverge(sk, k) < digits || val != cur.ref[sk] || (got > 0 && !less(last, sk)) {
					t.Fatalf("step %d: scan(%x, %d) yielded %x=%d", step, k, digits, sk, val)
				}
				last = sk
				got++
			}
			if got != want {
				t.Fatalf("step %d: scan(%x, %d) yielded %d entries, the map has %d", step, k, digits, got, want)
			}
		}
	}
	// Whatever one version wrote, no other may have seen.
	for _, v := range vs {
		verify(v)
	}
}

// FuzzTable is the table's model check (see tableOps). The seeds cover
// an empty input, single-shape runs long enough to split buckets and
// push branches down, and deletes back to empty — and no longer, the
// fuzzer minimises what it finds; TestTableRandomOps runs the same
// check over long random strings.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	for shape := range byte(4) {
		var grow, churn []byte
		for i := range byte(60) {
			grow = append(grow, shape<<6, i, i*7)
			churn = append(churn, shape<<6|(i%8), i*5, i)
		}
		for i := range byte(60) {
			grow = append(grow, shape<<6|3, i, i*7)
		}
		f.Add(grow)
		f.Add(churn)
	}
	f.Fuzz(func(t *testing.T, data []byte) { tableOps(t, data) })
}

func TestTableRandomOps(t *testing.T) {
	rng := sim.NewRNG(16)
	for round := range 20 {
		data := make([]byte, 3*(500+rng.Intn(4000)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		t.Run(fmt.Sprint(round), func(t *testing.T) { tableOps(t, data) })
	}
}

// TestTableDepthIgnoresSharedPrefixes: keys that differ only in their
// last bytes — one transaction's outputs, the benchmark's outpoints —
// sit as shallow as digests do, because a branch skips the digits its
// keys share.
func TestTableDepthIgnoresSharedPrefixes(t *testing.T) {
	depth := func(tb *table[utxoKey, int]) int {
		var deepest func(s *slot[utxoKey, int]) int
		deepest = func(s *slot[utxoKey, int]) int {
			if s.br == nil {
				return 0
			}
			d := 0
			for i := range s.br.kids {
				d = max(d, deepest(&s.br.kids[i]))
			}
			return d + 1
		}
		return deepest(&tb.root)
	}
	const n = 20_000
	var counters, digests table[utxoKey, int]
	for i := range n {
		counters.put(1, OutPoint{Index: uint32(i)}.key(), i)
		digests.put(1, OutPoint{TxID: crypto.Sum([]byte{byte(i), byte(i >> 8)})}.key(), i)
	}
	checkShape(t, &counters)
	checkShape(t, &digests)
	if c, d := depth(&counters), depth(&digests); c > d+1 || c > 6 {
		t.Fatalf("%d counter keys sit %d branches deep, digests %d", n, c, d)
	}
}
