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
// made on top of that parent, in four small maps, each made on the
// layer's first write to it — for a block's state,
// the block's own delta (see blockDelta); it is the only layer a block
// writes. A layer without a parent is a base and holds the whole ledger,
// in persistent tables (see base): no maps, no tombstones. Every contract
// object a state holds is immutable once stored — a call runs on a
// Clone (ApplyTx) — so layers and bases share them freely.
type State struct {
	parent *State
	depth  int

	// An overlay's own changes; nil on a base and until first written.
	utxos     map[OutPoint]TxOut
	spent     map[OutPoint]bool // tombstones masking the parent
	contracts map[crypto.Address]vm.Contract
	balances  map[crypto.Address]vm.Amount

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
	// reads (UTXOsOwnedBy, and through it SelectFunds/Balance on every
	// client call) cost O(owned + overlay deltas) for any address —
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
// check; Child is its caller. Its maps are made on first write.
func (s *State) overlay() *State {
	return &State{parent: s, depth: s.depth + 1}
}

// put writes m[k] = v, making m first if the layer has not written it yet.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// absorb folds overlay t's own changes into s, a base under
// construction (flatten, the executor's floor) that reads as t's
// parent does. t is left untouched. Within one layer an outpoint lands
// in at most one of the utxo/spent maps, so the fold order is
// immaterial.
func (s *State) absorb(t *State) {
	for op := range t.spent {
		s.Spend(op)
	}
	for op, o := range t.utxos {
		s.AddUTXO(op, o)
	}
	for a, c := range t.contracts {
		s.PutContract(a, c)
	}
	for a, v := range t.balances {
		s.SetBalance(a, v)
	}
}

// flatten collapses the overlay chain into a single base state: a
// clone of the bottom base with the overlays above it absorbed oldest
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
		out.absorb(layer)
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

// blockDelta is what one block changed, as flat slices: the contents
// of the block's own overlay layer once the executor has pruned the
// layer itself. It is immutable, holds no maps (a pruned layer's four
// maps cost several times their payload), and shares contract objects
// with the layer it was taken from.
type blockDelta struct {
	added     []utxoEntry
	spent     []OutPoint
	contracts []contractEntry
	balances  []balanceEntry
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

// delta extracts an overlay layer's own changes. s must be an overlay
// whose every change is the block's (true of ApplyBlock and BuildBlock
// results and of layers rebuilt by apply).
func (s *State) delta() *blockDelta {
	d := &blockDelta{
		added:     make([]utxoEntry, 0, len(s.utxos)),
		spent:     make([]OutPoint, 0, len(s.spent)),
		contracts: make([]contractEntry, 0, len(s.contracts)),
		balances:  make([]balanceEntry, 0, len(s.balances)),
	}
	for op, o := range s.utxos { //ac3:maporder a delta is only ever folded back into maps by apply; its order is never observed
		d.added = append(d.added, utxoEntry{op, o})
	}
	for op := range s.spent { //ac3:maporder as above
		d.spent = append(d.spent, op)
	}
	for a, c := range s.contracts { //ac3:maporder as above
		d.contracts = append(d.contracts, contractEntry{a, c})
	}
	for a, v := range s.balances { //ac3:maporder as above
		d.balances = append(d.balances, balanceEntry{a, v})
	}
	return d
}

// apply folds a block delta into s — into a fresh overlay to re-mount
// a pruned block's state, or into a base to advance it by one block.
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
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		if cur.spent[op] {
			return TxOut{}, false
		}
		if o, ok := cur.utxos[op]; ok {
			return o, true
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
	delete(s.spent, op)
	put(&s.utxos, op, out)
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
	delete(s.utxos, op)
	put(&s.spent, op, true)
}

// Contract returns the live contract object at addr for *reading*.
// It is shared by every state that holds it: to change it, store a
// Clone with PutContract, as ApplyTx does for a call.
func (s *State) Contract(addr crypto.Address) (vm.Contract, bool) {
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		if c, ok := cur.contracts[addr]; ok {
			return c, true
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
	put(&s.contracts, addr, c)
}

// Balance returns a contract's locked asset balance.
func (s *State) Balance(addr crypto.Address) vm.Amount {
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		if v, ok := cur.balances[addr]; ok {
			return v
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
	put(&s.balances, addr, v)
}

// UTXOsOwnedBy collects the outputs owned by addr. Overlay layers are
// scanned linearly (they are small and bounded by flattenDepth); the
// base is read through its owner index — the entries under addr's
// prefix, in outpoint order — so wallet reads stay
// O(owned + overlay deltas) rather than O(UTXO set). Every candidate is
// confirmed by a lookup from the top, which is what decides whether a
// newer layer spent it. It serves clients (wallets), not consensus.
func (s *State) UTXOsOwnedBy(addr crypto.Address) map[OutPoint]TxOut {
	out := make(map[OutPoint]TxOut)
	cur := s
	for ; cur.parent != nil; cur = cur.parent {
		for op, o := range cur.utxos {
			if o.Owner != addr {
				continue
			}
			if live, ok := s.UTXO(op); ok {
				out[op] = live
			}
		}
	}
	for k := range cur.base.owned.scan(ownedBy(addr, utxoKey{}), 2*crypto.AddressSize) {
		op := k.outPoint()
		if live, ok := s.UTXO(op); ok {
			out[op] = live
		}
	}
	return out
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
		for op := range cur.spent {
			seen[op] = true
		}
		for op, o := range cur.utxos {
			if seen[op] {
				continue
			}
			seen[op] = true
			total += o.Value
		}
		for a := range cur.balances {
			if seenBal[a] {
				continue
			}
			seenBal[a] = true
			total += cur.balances[a]
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
