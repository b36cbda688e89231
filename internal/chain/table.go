package chain

import (
	"iter"

	"repro/internal/crypto"
)

// tableKey is what a table can be keyed by: a fixed-width byte string.
// The ledger's keys are digests (a transaction id, an address) or a
// digest followed by a counter, so the trie branches on the key's own
// bytes — no hash function and no seed — and visits entries in key
// order. Keys with long common prefixes (one transaction's outputs, one
// owner's index entries, the low-entropy keys of tests) cost nothing
// extra: a branch records the digit it tests and skips the digits every
// key below it shares.
type tableKey interface {
	~[crypto.AddressSize]byte | ~[utxoKeyLen]byte | ~[ownedKeyLen]byte
}

const (
	// fanout is the children per branch: one 4-bit digit of the key.
	fanout = 16
	// bucketSize is the entries a leaf holds before it splits. Entries
	// live inside the bucket, so copying one on first write is a single
	// allocation and a write to a bucket already owned is none.
	bucketSize = 8
)

// table is a persistent map: a 16-way radix trie over the key's digits
// with small sorted buckets at the leaves. A copy of the struct is a
// snapshot in O(1) — provided both sides then write under generations
// neither has used before (State.clone) — because every node is tagged
// with the generation that allocated it: a writer changes in place the
// nodes of its own generation and copies any other node first, so a
// node is copied at most once per generation and a batch of k writes to
// a table of n entries costs O(k log n), whatever n is.
//
// The zero table is empty and ready to use.
type table[K tableKey, V any] struct {
	root slot[K, V]
}

// slot is a position in the trie: a branch, a bucket, or empty.
type slot[K tableKey, V any] struct {
	br *branch[K, V]
	bk *bucket[K, V]
}

func (s *slot[K, V]) empty() bool { return s.br == nil && s.bk == nil }

// branch fans out on digit pos. Every key below it agrees on the digits
// before pos; the child at index i holds those whose digit pos is i. A
// bucket may serve an aligned power-of-two run of children (see span),
// a branch serves one; at least two distinct children are occupied.
type branch[K tableKey, V any] struct {
	gen  uint64
	pos  int
	kids [fanout]slot[K, V]
}

// bucket holds 1..bucketSize entries in key order.
type bucket[K tableKey, V any] struct {
	gen  uint64
	n    int
	keys [bucketSize]K
	vals [bucketSize]V
}

func (b *branch[K, V]) own(gen uint64) *branch[K, V] {
	if b.gen == gen {
		return b
	}
	c := *b
	c.gen = gen
	return &c
}

func (b *bucket[K, V]) own(gen uint64) *bucket[K, V] {
	if b.gen == gen {
		return b
	}
	c := *b
	c.gen = gen
	return &c
}

// digit returns the i-th 4-bit digit of k, most significant first.
func digit[K tableKey](k K, i int) int {
	b := k[i>>1]
	if i&1 == 0 {
		return int(b >> 4)
	}
	return int(b & 0xF)
}

// diverge returns the first digit at which a and b differ, or the
// number of digits in a key when they are equal.
func diverge[K tableKey](a, b K) int {
	for i := range len(a) {
		if x := a[i] ^ b[i]; x != 0 {
			if x&0xF0 != 0 {
				return 2 * i
			}
			return 2*i + 1
		}
	}
	return 2 * len(a)
}

func less[K tableKey](a, b K) bool {
	d := diverge(a, b)
	return d < 2*len(a) && digit(a, d) < digit(b, d)
}

func (t *table[K, V]) get(k K) (v V, ok bool) {
	s := &t.root
	for s.br != nil {
		s = &s.br.kids[digit(k, s.br.pos)]
	}
	if b := s.bk; b != nil {
		for i := range b.n {
			if b.keys[i] == k {
				return b.vals[i], true
			}
		}
	}
	return v, false
}

// firstKey returns the smallest key at or below s, which is not empty.
func (s *slot[K, V]) firstKey() K {
	for s.br != nil {
		i := 0
		for s.br.kids[i].empty() {
			i++
		}
		s = &s.br.kids[i]
	}
	return s.bk.keys[0]
}

// run is a range [lo, hi) of a branch's children.
type run struct{ lo, hi int }

// span returns the run of br's children that hold what child i holds:
// the one child for a branch, the aligned power-of-two block of
// children sharing a bucket, or the largest such block of empty
// children around i.
func (br *branch[K, V]) span(i int) run {
	for size := fanout; size > 1; size >>= 1 {
		lo := i &^ (size - 1)
		j := lo
		for j < lo+size && br.kids[j] == br.kids[i] {
			j++
		}
		if j == lo+size {
			return run{lo, j}
		}
	}
	return run{i, i + 1}
}

func (br *branch[K, V]) fill(r run, b *bucket[K, V]) {
	for i := r.lo; i < r.hi; i++ {
		br.kids[i] = slot[K, V]{bk: b}
	}
}

// put sets k to v, writing as generation gen.
func (t *table[K, V]) put(gen uint64, k K, v V) {
	// Follow k's digits down, taking the branches on the way.
	var up *branch[K, V] // holds s; nil at the root
	s := &t.root
	for s.br != nil {
		up = s.br.own(gen)
		s.br = up
		s = &up.kids[digit(k, up.pos)]
	}
	// The branches skip digits, so getting here says nothing about the
	// digits skipped. Where k really parts from the keys it was led to
	// — any of them, they agree that far — decides: at or after the last
	// branch's digit, k belongs here; before it, k gets a branch of its
	// own above the first branch that tests a later digit.
	if up != nil {
		at := s
		if at.empty() {
			at = &slot[K, V]{br: up}
		}
		rep := at.firstKey()
		if d := diverge(k, rep); d < up.pos {
			s = &t.root
			for s.br.pos <= d {
				s = &s.br.kids[digit(k, s.br.pos)]
			}
			up = &branch[K, V]{gen: gen, pos: d}
			up.kids[digit(rep, d)] = *s
			*s = slot[K, V]{br: up}
			s = &up.kids[digit(k, d)]
		}
	}
	for {
		b := s.bk
		if b == nil {
			b = &bucket[K, V]{gen: gen}
		}
		i := 0
		for i < b.n && less(b.keys[i], k) {
			i++
		}
		found := i < b.n && b.keys[i] == k
		if found || b.n < bucketSize {
			if own := b.own(gen); own != s.bk {
				b = own
				if up != nil {
					up.fill(up.span(digit(k, up.pos)), b)
				} else {
					s.bk = b
				}
			}
			if !found {
				copy(b.keys[i+1:b.n+1], b.keys[i:b.n])
				copy(b.vals[i+1:b.n+1], b.vals[i:b.n])
				b.keys[i] = k
				b.n++
			}
			b.vals[i] = v
			return
		}
		// Full. A bucket serving several children splits between them;
		// one serving a single child (or the root) first becomes the one
		// bucket of a new branch on the first digit its entries and k do
		// not all share — the bucket is sorted, so that is where its
		// ends, or k and either end, part. Either way, go round again.
		if up != nil {
			if r := up.span(digit(k, up.pos)); r.hi-r.lo > 1 {
				up.halve(gen, r, b)
				continue
			}
		}
		up = &branch[K, V]{gen: gen, pos: min(diverge(b.keys[0], b.keys[b.n-1]), diverge(k, b.keys[0]))}
		up.fill(run{0, fanout}, b)
		*s = slot[K, V]{br: up}
		s = &up.kids[digit(k, up.pos)]
	}
}

// halve gives each half of the children in r, which share the full
// bucket b, a bucket of its own, as in extendible hashing — so a split
// leaves buckets half full rather than a sixteenth. The keys agree up
// to br's digit and are sorted, so the lower half's entries are the
// first c; a half that gets them all keeps b itself.
func (br *branch[K, V]) halve(gen uint64, r run, b *bucket[K, V]) {
	mid := (r.lo + r.hi) / 2
	c := 0
	for c < b.n && digit(b.keys[c], br.pos) < mid {
		c++
	}
	lower, upper := b, b
	switch {
	case c == 0:
		lower = nil
	case c == b.n:
		upper = nil
	default:
		upper = &bucket[K, V]{gen: gen, n: b.n - c}
		copy(upper.keys[:], b.keys[c:b.n])
		copy(upper.vals[:], b.vals[c:b.n])
		if b.gen != gen {
			lower = &bucket[K, V]{gen: gen}
			copy(lower.keys[:], b.keys[:c])
			copy(lower.vals[:], b.vals[:c])
		}
		clear(lower.vals[c:]) // release what the upper half took
		lower.n = c
	}
	br.fill(run{r.lo, mid}, lower)
	br.fill(run{mid, r.hi}, upper)
}

// del removes k, writing as generation gen, and returns what it held.
// Deleting an absent key copies nothing.
func (t *table[K, V]) del(gen uint64, k K) (old V, ok bool) {
	if old, ok = t.get(k); !ok {
		return old, false
	}
	var at *slot[K, V] // holds the branch that holds s
	s := &t.root
	for s.br != nil {
		s.br = s.br.own(gen)
		at, s = s, &s.br.kids[digit(k, s.br.pos)]
	}
	b := s.bk
	if b.n > 1 {
		b = b.own(gen)
		i := 0
		for b.keys[i] != k {
			i++
		}
		copy(b.keys[i:], b.keys[i+1:b.n])
		copy(b.vals[i:], b.vals[i+1:b.n])
		b.n--
		var zero V
		b.vals[b.n] = zero // release what it referenced
	} else {
		b = nil
	}
	if at == nil {
		s.bk = b
		return old, true
	}
	up := at.br
	up.fill(up.span(digit(k, up.pos)), b)
	if b == nil {
		// A branch left with one child is replaced by that child.
		var only *slot[K, V]
		for i := range up.kids {
			if kid := &up.kids[i]; !kid.empty() && (only == nil || *kid != *only) {
				if only != nil {
					return old, true
				}
				only = kid
			}
		}
		*at = *only
	}
	return old, true
}

// scan yields, in key order, the entries whose keys share their first
// digits digits with from; scan(from, 0) is every entry. The table must
// not be written while the sequence is being read.
func (t *table[K, V]) scan(from K, digits int) iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		s := &t.root
		for s.br != nil && s.br.pos < digits {
			s = &s.br.kids[digit(from, s.br.pos)]
		}
		s.each(from, digits, yield)
	}
}

func (s *slot[K, V]) each(from K, digits int, yield func(K, V) bool) bool {
	if s.br != nil {
		for i := range s.br.kids {
			// Neighbours may share a bucket; visit it once.
			if i > 0 && s.br.kids[i] == s.br.kids[i-1] {
				continue
			}
			if !s.br.kids[i].each(from, digits, yield) {
				return false
			}
		}
		return true
	}
	if b := s.bk; b != nil {
		for i := range b.n {
			// The branches above skipped digits; only the key itself
			// says whether it has the prefix.
			if diverge(b.keys[i], from) >= digits && !yield(b.keys[i], b.vals[i]) {
				return false
			}
		}
	}
	return true
}
