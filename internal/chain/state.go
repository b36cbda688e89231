package chain

import (
	"maps"
	"slices"

	"repro/internal/crypto"
	"repro/internal/vm"
)

// flattenDepth bounds the overlay-chain length before the chain is
// collapsed into a fresh base behind the next child. It trades copy
// cost (BenchmarkFlatten) against lookup cost
// (BenchmarkStateLookupByOverlayDepth).
const flattenDepth = 48

// State is the ledger state after applying some block: the UTXO set,
// deployed contract objects, and contract balances. States form a
// copy-on-write overlay chain mirroring the block tree, so two forks
// cheaply share their common prefix — the property that makes reorgs
// (and therefore Lemma 5.3's fork analysis) natural to express.
//
// A layer with a parent is an overlay and holds exactly the changes
// made on top of that parent — for a block's state, the block's own
// delta (see blockDelta). A layer without a parent is a base: the whole
// table, no tombstones, plus the owner index.
type State struct {
	parent *State
	depth  int

	// pool recycles this tree's overlay layers. Every layer of one
	// network's state tree shares the tree root's pool; see statePool.
	pool *statePool

	utxos     map[OutPoint]TxOut
	spent     map[OutPoint]bool // overlays only: tombstones masking the parent
	contracts map[crypto.Address]vm.Contract
	balances  map[crypto.Address]vm.Amount

	// byOwner indexes every live output of a *base* layer by owner, so
	// wallet reads (UTXOsOwnedBy, and through it SelectFunds/Balance on
	// every client call) cost O(owned + overlay deltas) for any address
	// — including one never seen before, which every AC2T's fresh
	// wallets are. It is maintained eagerly by AddUTXO/Spend and cloned
	// shallowly with the base: the per-owner slices are shared between
	// base generations and copied on first write (ownedList.gen).
	// Overlay layers stay unindexed (nil) — they are small and bounded
	// by flattenDepth.
	byOwner map[crypto.Address]ownedList
	// gen names this base among the bases of its tree; an ownedList
	// tagged with another generation is shared and must not be written.
	gen uint64
}

// ownedList is one owner's slice of a base layer's index: 36 bytes per
// output, no per-entry map overhead.
type ownedList struct {
	gen uint64
	ops []OutPoint
}

// statePool recycles overlay layers within one state tree. Block
// building churns through one trial overlay per candidate transaction
// (discarded on failure, absorbed and discarded on success), which at
// 100k+ AC2Ts dominates the allocation profile; recycling the four
// little maps keeps allocs-per-AC2T flat. Only provably unshared
// layers may be recycled — states admitted to an executor are shared
// across views and must never re-enter the pool.
//
// The pool is per tree (one per network's genesis base), not process-
// global: recycling used to go through a shared sync.Pool, which was
// the one piece of cross-shard-world mutable state in this package —
// exactly what the determinism contract forbids (ac3lint: shardworld,
// globalstate). A plain free list is also cheaper here, because
// everything in one tree runs on its shard world's single goroutine.
type statePool struct {
	free []*State
	gens uint64 // base generations handed out in this tree
}

func (p *statePool) get() *State {
	if n := len(p.free) - 1; n >= 0 {
		s := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		return s
	}
	return &State{
		pool:      p,
		utxos:     make(map[OutPoint]TxOut),
		spent:     make(map[OutPoint]bool),
		contracts: make(map[crypto.Address]vm.Contract),
		balances:  make(map[crypto.Address]vm.Amount),
	}
}

func (p *statePool) put(s *State) {
	p.free = append(p.free, s)
}

func (p *statePool) nextGen() uint64 {
	p.gens++
	return p.gens
}

// recycle clears s and returns it to the pool. The caller asserts it
// holds the last reference (true for BuildBlock trial overlays and for
// ApplyBlock's error-path scratch child — both are invisible outside
// the call that created them).
func (s *State) recycle() {
	s.parent = nil
	s.depth = 0
	clear(s.utxos)
	clear(s.spent)
	clear(s.contracts)
	clear(s.balances)
	s.pool.put(s)
}

// NewState returns an empty base state rooting a fresh tree (and a
// fresh overlay pool).
func NewState() *State {
	pool := &statePool{}
	return &State{
		pool:      pool,
		utxos:     make(map[OutPoint]TxOut),
		contracts: make(map[crypto.Address]vm.Contract),
		balances:  make(map[crypto.Address]vm.Amount),
		byOwner:   make(map[crypto.Address]ownedList),
		gen:       pool.nextGen(),
	}
}

// Child returns a fresh overlay on top of s. When the overlay chain
// has grown to flattenDepth it is collapsed *behind* the child: the
// child is still an empty overlay (so whatever is applied to it is
// exactly its own delta, and ContractForWrite clones before writing),
// on a new base instead of on s. s itself is never modified.
func (s *State) Child() *State {
	if s.depth >= flattenDepth {
		return s.flatten().overlay()
	}
	return s.overlay()
}

// overlay returns a direct child layer unconditionally — no flatten
// check. Block building uses it for per-transaction trial layers,
// which are either discarded (the transaction failed) or folded back
// into s with absorb, so they must never turn into deep copies. The
// layer comes from statePool; recycle() returns it.
func (s *State) overlay() *State {
	c := s.pool.get()
	c.parent = s
	c.depth = s.depth + 1
	return c
}

// absorb folds a direct child overlay's deltas into s. t must have
// been created by s.overlay() (or be the next layer up when s is a
// base under construction) and is left untouched. Within one layer an
// outpoint lands in at most one of the utxo/spent maps, so the fold
// order is immaterial.
func (s *State) absorb(t *State) {
	for op := range t.spent {
		s.Spend(op)
	}
	for op, o := range t.utxos {
		s.AddUTXO(op, o)
	}
	for a, c := range t.contracts {
		s.contracts[a] = c
	}
	for a, v := range t.balances {
		s.balances[a] = v
	}
}

// flatten collapses the overlay chain into a single base state: a
// clone of the bottom base with the overlays above it absorbed oldest
// first. Contract objects are shared, not cloned — they are immutable
// once written to a layer (every mutation path goes through
// ContractForWrite's copy-on-write clone). The flattened base stays in
// s's tree: it inherits the pool rather than rooting a new one.
func (s *State) flatten() *State {
	var layers []*State
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

// clone copies a base layer: pre-sized map copies, with the owner
// index's slices shared. Both s and the copy get a fresh generation,
// so whichever of them writes an owner's slice next copies it first.
func (s *State) clone() *State {
	out := &State{
		pool:      s.pool,
		utxos:     maps.Clone(s.utxos),
		contracts: maps.Clone(s.contracts),
		balances:  maps.Clone(s.balances),
		byOwner:   maps.Clone(s.byOwner),
		gen:       s.pool.nextGen(),
	}
	s.gen = s.pool.nextGen()
	return out
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
		s.contracts[e.addr] = e.c
	}
	for _, e := range d.balances {
		s.balances[e.addr] = e.v
	}
}

// UTXO looks up an unspent output.
func (s *State) UTXO(op OutPoint) (TxOut, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.spent[op] {
			return TxOut{}, false
		}
		if o, ok := cur.utxos[op]; ok {
			return o, true
		}
	}
	return TxOut{}, false
}

// AddUTXO records a new unspent output.
func (s *State) AddUTXO(op OutPoint, out TxOut) {
	if s.parent == nil {
		l := s.ownedForWrite(out.Owner)
		l.ops = append(l.ops, op)
		s.byOwner[out.Owner] = l
	} else {
		delete(s.spent, op)
	}
	s.utxos[op] = out
}

// Spend marks an output spent. The caller must have checked existence.
// An overlay records a tombstone masking its parent; a base has nothing
// below it to mask, so the entry is simply gone.
func (s *State) Spend(op OutPoint) {
	if s.parent == nil {
		if o, ok := s.utxos[op]; ok {
			s.unindex(o.Owner, op)
			delete(s.utxos, op)
		}
		return
	}
	delete(s.utxos, op)
	s.spent[op] = true
}

// ownedForWrite returns owner's index slice, private to this base
// generation (copied first if an older generation still shares it).
func (s *State) ownedForWrite(owner crypto.Address) ownedList {
	l := s.byOwner[owner]
	if l.gen != s.gen {
		l = ownedList{gen: s.gen, ops: slices.Clone(l.ops)}
	}
	return l
}

// unindex removes op from owner's slice of the base index; an owner
// with nothing left leaves the index.
func (s *State) unindex(owner crypto.Address, op OutPoint) {
	shared := s.byOwner[owner].ops
	i := slices.Index(shared, op)
	if i < 0 {
		return
	}
	last := len(shared) - 1
	if last == 0 {
		delete(s.byOwner, owner)
		return
	}
	l := s.ownedForWrite(owner)
	l.ops[i] = l.ops[last]
	l.ops = l.ops[:last]
	s.byOwner[owner] = l
}

// Contract returns the live contract object at addr for *reading*.
// Callers must not mutate the result; use ContractForWrite inside
// block application.
func (s *State) Contract(addr crypto.Address) (vm.Contract, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if c, ok := cur.contracts[addr]; ok {
			return c, true
		}
	}
	return nil, false
}

// ContractForWrite returns a contract clone owned by this overlay
// layer, creating the copy-on-write entry on first access.
func (s *State) ContractForWrite(addr crypto.Address) (vm.Contract, bool) {
	if c, ok := s.contracts[addr]; ok {
		return c, true
	}
	c, ok := s.Contract(addr)
	if !ok {
		return nil, false
	}
	cl := c.Clone()
	s.contracts[addr] = cl
	return cl, true
}

// PutContract stores a freshly deployed contract.
func (s *State) PutContract(addr crypto.Address, c vm.Contract) {
	s.contracts[addr] = c
}

// Balance returns a contract's locked asset balance.
func (s *State) Balance(addr crypto.Address) vm.Amount {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.balances[addr]; ok {
			return v
		}
	}
	return 0
}

// SetBalance records a contract balance in this overlay layer.
func (s *State) SetBalance(addr crypto.Address, v vm.Amount) {
	s.balances[addr] = v
}

// UTXOsOwnedBy collects the outputs owned by addr. Overlay layers are
// scanned linearly (they are small and bounded by flattenDepth); the
// base layer is read through byOwner, so wallet reads stay
// O(owned + overlay deltas) rather than O(UTXO set). Every candidate is
// confirmed by a lookup from the top, which is what decides whether a
// newer layer spent it. It is a test/client convenience (wallets), not
// a consensus operation.
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
	for _, op := range cur.byOwner[addr].ops {
		if live, ok := s.UTXO(op); ok {
			out[op] = live
		}
	}
	return out
}

// TotalValue sums every unspent output plus every contract balance —
// the conserved quantity the property tests check (minting via
// genesis/coinbase is accounted by the caller).
func (s *State) TotalValue() vm.Amount {
	var total vm.Amount
	seen := make(map[OutPoint]bool)
	seenBal := make(map[crypto.Address]bool)
	for cur := s; cur != nil; cur = cur.parent {
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
	return total
}

// OverlayDepth reports how many overlay layers sit above the base
// state (exported for the flattening ablation benchmark).
func (s *State) OverlayDepth() int { return s.depth }
