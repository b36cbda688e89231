package chain

import (
	"encoding/binary"
	"slices"

	"repro/internal/crypto"
	"repro/internal/vm"
)

// flattenDepth bounds the overlay-chain length before the chain is
// collapsed into a fresh base behind the next child. It trades the cost
// of a fold — O(the overlays' changes · log ledger), BenchmarkFlatten —
// against the cost of a lookup that walks the overlays first
// (BenchmarkStateLookupByOverlayDepth).
const flattenDepth = 48

// State is the ledger state after applying some block: the UTXO set,
// deployed contract objects, and contract balances. States form a
// copy-on-write overlay chain mirroring the block tree, so two forks
// cheaply share their common prefix — the property that makes reorgs
// (and therefore Lemma 5.3's fork analysis) natural to express.
//
// A layer with a parent is an overlay and holds exactly the changes
// made on top of that parent, as a blockDelta: four flat slices and a
// fingerprint of the keys in them. For a block's state it is the
// block's own delta, the only layer a block writes, and what the
// executor keeps when it prunes the state. A layer without a parent is
// a base and holds the whole ledger, in persistent tables (see base):
// no slices, no tombstones. Every contract object a state holds is
// immutable once stored — a call runs on a Clone (ApplyTx) — so layers
// and bases share them freely.
type State struct {
	parent *State
	depth  int

	// An overlay's own changes; empty on a base.
	own blockDelta

	// The whole ledger of a base; nil on an overlay.
	base *base
}

// base is the ledger below an overlay chain. Bases of one tree share
// structure: clone copies four roots, and from then on each side
// allocates under a generation of its own (see table), so a base built
// by folding a few overlays into a clone of the last one — flatten, the
// executor's floor — costs what the overlays changed, not what the
// ledger holds.
type base struct {
	// gen names this base among the bases of its tree. A table node
	// tagged with another generation is shared and is copied before it
	// is written. gens counts the generations handed out in the tree;
	// every base of one tree shares it.
	gen  uint64
	gens *uint64

	utxos     table[utxoKey, TxOut]
	contracts table[crypto.Address, vm.Contract]
	balances  table[crypto.Address, vm.Amount]

	// owned indexes every live output by owner ‖ outpoint, so wallet
	// reads (AppendOwned, and through it SelectFunds on every client
	// call) cost O(owned + overlay deltas) for any address —
	// including one never seen before, which every AC2T's fresh wallets
	// are — and adding to or removing from an owner's outputs costs the
	// same for a miner holding thousands of coinbases as for a wallet
	// holding one. It is maintained eagerly by AddUTXO/Spend. Overlay
	// layers stay unindexed — they are small and bounded by
	// flattenDepth.
	owned table[ownedKey, struct{}]
}

// A utxoKey is an outpoint as bytes, transaction id first and the
// output index big-endian after it, so byte order is OutPoint.Compare
// order; an ownedKey puts the owner's address in front.
const (
	utxoKeyLen  = crypto.HashSize + 4
	ownedKeyLen = crypto.AddressSize + utxoKeyLen
)

type (
	utxoKey  [utxoKeyLen]byte
	ownedKey [ownedKeyLen]byte
)

func (o OutPoint) key() (k utxoKey) {
	copy(k[:], o.TxID[:])
	binary.BigEndian.PutUint32(k[crypto.HashSize:], o.Index)
	return k
}

func (k utxoKey) outPoint() OutPoint {
	return OutPoint{TxID: crypto.Hash(k[:crypto.HashSize]), Index: binary.BigEndian.Uint32(k[crypto.HashSize:])}
}

func ownedBy(owner crypto.Address, op utxoKey) (k ownedKey) {
	copy(k[:], owner[:])
	copy(k[crypto.AddressSize:], op[:])
	return k
}

func (k ownedKey) outPoint() OutPoint { return utxoKey(k[crypto.AddressSize:]).outPoint() }

// nextGen hands out a generation no base of b's tree has held.
func (b *base) nextGen() uint64 {
	*b.gens++
	return *b.gens
}

// NewState returns an empty base state rooting a fresh tree.
func NewState() *State {
	b := &base{gens: new(uint64)}
	b.gen = b.nextGen()
	return &State{base: b}
}

// Child returns a fresh overlay on top of s. When the overlay chain
// has grown to flattenDepth it is collapsed *behind* the child: the
// child is still an empty overlay (so whatever is applied to it is
// exactly its own delta), on a new base instead of on s. s itself is
// never modified.
func (s *State) Child() *State {
	if s.depth >= flattenDepth {
		return s.flatten().overlay()
	}
	return s.overlay()
}

// overlay returns a direct child layer unconditionally — no flatten
// check; Child is its caller.
func (s *State) overlay() *State {
	return &State{parent: s, depth: s.depth + 1}
}

// flatten collapses the overlay chain into a single base state: a
// clone of the bottom base with the overlays above it applied oldest
// first. Contract objects are shared, not cloned — they are immutable
// once stored. The flattened base stays in s's tree and shares its
// generation counter.
func (s *State) flatten() *State {
	layers := make([]*State, 0, s.depth)
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		layers = append(layers, cur)
	}
	out := cur.clone()
	for _, layer := range slices.Backward(layers) {
		out.apply(&layer.own)
	}
	return out
}

// clone snapshots a base layer in O(1): the copy shares every table
// node with s. Both get a fresh generation, so whichever of them writes
// next copies the nodes on its way first and the other never sees the
// write.
func (s *State) clone() *State {
	b := *s.base
	b.gen = b.nextGen()
	s.base.gen = b.nextGen()
	return &State{base: &b}
}

// blockDelta is what one block changed: an overlay layer's contents.
// Within one delta an outpoint is in at most one of added and spent, and
// an address at most once in contracts and once in balances, so the
// order of the slices is never observed. A layer is written only while
// its block is built or applied; after that the executor may take it by
// value, sharing the slices, to keep when it prunes the state or to
// re-mount under a new State. Its backing arrays lie apart from the
// State that wrote them (a built block's added outputs, when they fit,
// in the block's own allocation), so a kept delta pins no state.
type blockDelta struct {
	added     []utxoEntry
	spent     []OutPoint // tombstones masking the parent
	contracts []contractEntry
	balances  []balanceEntry
	// keys has the bit of every outpoint and address the slices have
	// held (see bitOf). A lookup skips a layer without its key's bit,
	// which is most layers: a block touches a few dozen keys at most.
	keys fingerprint
}

type utxoEntry struct {
	op  OutPoint
	out TxOut
}

type contractEntry struct {
	addr crypto.Address
	c    vm.Contract
}

type balanceEntry struct {
	addr crypto.Address
	v    vm.Amount
}

// fingerprint is a 256-bit set of key bits.
type fingerprint [4]uint64

func (f *fingerprint) has(bit uint8) bool { return f[bit>>6]&(1<<(bit&63)) != 0 }

// mark sets bit and reports whether it was set before.
func (f *fingerprint) mark(bit uint8) bool {
	had := f.has(bit)
	f[bit>>6] |= 1 << (bit & 63)
	return had
}

// bitOf picks a key's fingerprint bit from its first eight bytes and,
// for an outpoint, its index, spread by a multiplicative hash: ids and
// addresses are digests, and the outpoints of one transaction differ
// only in their index.
func bitOf(id []byte, index uint32) uint8 {
	return uint8((binary.LittleEndian.Uint64(id) ^ uint64(index)) * 0x9E3779B97F4A7C15 >> 56)
}

// sameOut and sameAddr compare keys the cheap way first: the index and
// the first eight bytes, where two keys of one layer almost always
// already differ.
func sameOut(a, b *OutPoint) bool {
	return a.Index == b.Index && binary.LittleEndian.Uint64(a.TxID[:]) == binary.LittleEndian.Uint64(b.TxID[:]) && a.TxID == b.TxID
}

func sameAddr(a, b *crypto.Address) bool {
	return binary.LittleEndian.Uint64(a[:]) == binary.LittleEndian.Uint64(b[:]) && *a == *b
}

// addedAt, spentAt, contractAt and balanceAt return the index of a key
// in one of the layer's slices, -1 when it is not there. They are plain
// loops: slices.IndexFunc copies each entry out and measured twice as
// slow on a lookup.
func (d *blockDelta) addedAt(op *OutPoint) int {
	for i := range d.added {
		if sameOut(&d.added[i].op, op) {
			return i
		}
	}
	return -1
}

func (d *blockDelta) spentAt(op *OutPoint) int {
	for i := range d.spent {
		if sameOut(&d.spent[i], op) {
			return i
		}
	}
	return -1
}

func (d *blockDelta) contractAt(a *crypto.Address) int {
	for i := range d.contracts {
		if sameAddr(&d.contracts[i].addr, a) {
			return i
		}
	}
	return -1
}

func (d *blockDelta) balanceAt(a *crypto.Address) int {
	for i := range d.balances {
		if sameAddr(&d.balances[i].addr, a) {
			return i
		}
	}
	return -1
}

// seal moves a layer written into reused buffers (BuildBlock's) into
// slices of its own, and returns the buffers emptied: the added outputs
// into slots when they fit there (BuildBlock's, in the block's own
// allocation), every other slice exact-sized.
func (d *blockDelta) seal(slots []utxoEntry) blockDelta {
	buf := *d
	var added []utxoEntry
	if n := len(buf.added); n <= len(slots) {
		added = slots[:n:n]
		copy(added, buf.added)
	} else {
		added = append(added, buf.added...)
	}
	*d = blockDelta{added, append([]OutPoint(nil), buf.spent...),
		append([]contractEntry(nil), buf.contracts...), append([]balanceEntry(nil), buf.balances...), buf.keys}
	clear(buf.contracts)
	return blockDelta{added: buf.added[:0], spent: buf.spent[:0], contracts: buf.contracts[:0], balances: buf.balances[:0]}
}

// apply folds a block delta into s, a base: flatten, and the executor's
// floor advancing by one block.
func (s *State) apply(d *blockDelta) {
	for _, op := range d.spent {
		s.Spend(op)
	}
	for _, e := range d.added {
		s.AddUTXO(e.op, e.out)
	}
	for _, e := range d.contracts {
		s.PutContract(e.addr, e.c)
	}
	for _, e := range d.balances {
		s.SetBalance(e.addr, e.v)
	}
}

// UTXO looks up an unspent output.
func (s *State) UTXO(op OutPoint) (TxOut, bool) {
	bit := bitOf(op.TxID[:], op.Index)
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		if d := &cur.own; d.keys.has(bit) { // added first: op is in one slice at most
			if i := d.addedAt(&op); i >= 0 {
				return d.added[i].out, true
			}
			if d.spentAt(&op) >= 0 {
				return TxOut{}, false
			}
		}
	}
	return cur.base.utxos.get(op.key())
}

// AddUTXO records a new unspent output.
func (s *State) AddUTXO(op OutPoint, out TxOut) {
	if b := s.base; b != nil {
		k := op.key()
		b.utxos.put(b.gen, k, out)
		b.owned.put(b.gen, ownedBy(out.Owner, k), struct{}{})
		return
	}
	d := &s.own
	if d.keys.mark(bitOf(op.TxID[:], op.Index)) {
		if i := d.spentAt(&op); i >= 0 {
			d.spent[i] = d.spent[len(d.spent)-1]
			d.spent = d.spent[:len(d.spent)-1]
		} else if i := d.addedAt(&op); i >= 0 {
			d.added[i].out = out
			return
		}
	}
	d.added = append(d.added, utxoEntry{op, out})
}

// Spend marks an output spent. The caller must have checked existence.
// An overlay records a tombstone masking its parent; a base has nothing
// below it to mask, so the entry is simply gone.
func (s *State) Spend(op OutPoint) {
	if b := s.base; b != nil {
		k := op.key()
		if o, ok := b.utxos.del(b.gen, k); ok {
			b.owned.del(b.gen, ownedBy(o.Owner, k))
		}
		return
	}
	d := &s.own
	if d.keys.mark(bitOf(op.TxID[:], op.Index)) {
		if i := d.addedAt(&op); i >= 0 {
			d.added[i] = d.added[len(d.added)-1]
			d.added = d.added[:len(d.added)-1]
		}
	}
	d.spent = append(d.spent, op)
}

// Contract returns the live contract object at addr for *reading*.
// It is shared by every state that holds it: to change it, store a
// Clone with PutContract, as ApplyTx does for a call.
func (s *State) Contract(addr crypto.Address) (vm.Contract, bool) {
	bit := bitOf(addr[:], 0)
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		if d := &cur.own; d.keys.has(bit) {
			if i := d.contractAt(&addr); i >= 0 {
				return d.contracts[i].c, true
			}
		}
	}
	return cur.base.contracts.get(addr)
}

// PutContract stores a contract object at addr: a freshly deployed one,
// or a called one's clone. It must not be written afterwards.
func (s *State) PutContract(addr crypto.Address, c vm.Contract) {
	if b := s.base; b != nil {
		b.contracts.put(b.gen, addr, c)
		return
	}
	d := &s.own
	if d.keys.mark(bitOf(addr[:], 0)) {
		if i := d.contractAt(&addr); i >= 0 {
			d.contracts[i].c = c
			return
		}
	}
	d.contracts = append(d.contracts, contractEntry{addr, c})
}

// Balance returns a contract's locked asset balance.
func (s *State) Balance(addr crypto.Address) vm.Amount {
	bit := bitOf(addr[:], 0)
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		if d := &cur.own; d.keys.has(bit) {
			if i := d.balanceAt(&addr); i >= 0 {
				return d.balances[i].v
			}
		}
	}
	v, _ := cur.base.balances.get(addr)
	return v
}

// SetBalance records a contract balance in this layer.
func (s *State) SetBalance(addr crypto.Address, v vm.Amount) {
	if b := s.base; b != nil {
		b.balances.put(b.gen, addr, v)
		return
	}
	d := &s.own
	if d.keys.mark(bitOf(addr[:], 0)) {
		if i := d.balanceAt(&addr); i >= 0 {
			d.balances[i].v = v
			return
		}
	}
	d.balances = append(d.balances, balanceEntry{addr, v})
}

// Owned is one output of a wallet read (AppendOwned).
type Owned struct {
	Op  OutPoint
	Out TxOut
}

// AppendOwned appends the unspent outputs owned by addr to dst, in
// outpoint order, each once. Overlay layers are scanned linearly (they
// are small and bounded by flattenDepth); the base is read through its
// owner index — the entries under addr's prefix, in outpoint order — so
// wallet reads stay O(owned + overlay deltas) rather than O(UTXO set).
// Every candidate is confirmed by a lookup from the top, which is what
// decides whether a newer layer spent it. It serves clients (wallets),
// not consensus.
func (s *State) AppendOwned(dst []Owned, addr crypto.Address) []Owned {
	start := len(dst)
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		for _, e := range cur.own.added {
			if e.out.Owner != addr {
				continue
			}
			if live, ok := s.UTXO(e.op); ok {
				dst = append(dst, Owned{e.op, live})
			}
		}
	}
	for k := range cur.base.owned.scan(ownedBy(addr, utxoKey{}), 2*crypto.AddressSize) {
		op := k.outPoint()
		if live, ok := s.UTXO(op); ok {
			dst = append(dst, Owned{op, live})
		}
	}
	// The overlays' finds come unordered, and an output re-added over
	// its own tombstone is found in two layers.
	owned := dst[start:]
	slices.SortFunc(owned, func(a, b Owned) int { return a.Op.Compare(b.Op) })
	owned = slices.CompactFunc(owned, func(a, b Owned) bool { return a.Op == b.Op })
	return dst[:start+len(owned)]
}

// TotalValue sums every unspent output plus every contract balance:
// the quantity every transaction but a mint conserves (minting via
// genesis/coinbase is accounted by the caller).
// kept: ROADMAP item 3(a), the oracle's per-chain value conservation.
func (s *State) TotalValue() vm.Amount {
	var total vm.Amount
	seen := make(map[OutPoint]bool)
	seenBal := make(map[crypto.Address]bool)
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		for _, op := range cur.own.spent {
			seen[op] = true
		}
		for _, e := range cur.own.added {
			if seen[e.op] {
				continue
			}
			seen[e.op] = true
			total += e.out.Value
		}
		for _, e := range cur.own.balances {
			if seenBal[e.addr] {
				continue
			}
			seenBal[e.addr] = true
			total += e.v
		}
	}
	for k, o := range cur.base.utxos.scan(utxoKey{}, 0) {
		if !seen[k.outPoint()] {
			total += o.Value
		}
	}
	for a, v := range cur.base.balances.scan(crypto.Address{}, 0) {
		if !seenBal[a] {
			total += v
		}
	}
	return total
}

// OverlayDepth reports how many overlay layers sit above the base
// state.
func (s *State) OverlayDepth() int { return s.depth }
