package chain

import (
	"fmt"
	"slices"

	"repro/internal/crypto"
	"repro/internal/vm"
)

// Executor is one blockchain network's shared store and state machine:
// one record per admitted block (the block, its ledger state, its own
// changes), the tx→block index, and a memoized ApplyBlock outcome per
// block hash. The paper's storage layer (Section 2.1) replicates a
// blockchain across N mining nodes, but block validation is a
// deterministic function of the (immutable) parent state and the
// (immutable) block — honest replicas re-running it always reach the
// same verdict (the Section 2.3 deterministic-replay argument). The
// executor therefore runs every state transition exactly once per
// network and serves the result — success (a shared read-only child
// state) or failure (the cached rejection) — to every replica view
// created with NewView.
//
// With Params.PruneDepth > 0 the executor additionally garbage-collects
// ledger states: once a block is buried deeper than PruneDepth below
// every live view's tip, its memoized *State is dropped and only the
// block's own changes are kept, as a compact blockDelta; index entries
// (and the delta) of blocks canonical in no view go with the state. A
// pruned state read below the horizon is re-derived by re-mounting the
// deltas on the nearest retained ancestor state — no transaction runs
// a second time. With Params.RetireDepth > 0 a second, much deeper
// sweep releases whole blocks (bodies carry the SPV evidence blobs that
// dominate memory at scale) after folding their deltas into the floor
// state — the pruned-full-node model: history below the floor is gone,
// everything above it stays re-derivable. Re-executing a block
// (ApplyBlock, counted in ExecStats.Replays) survives only as the
// fallback for a block whose delta was dropped — the Section 2.3
// determinism argument in reverse. See ADR-007 and ADR-011.
//
// The executor is deliberately lock-free: it inherits the simulation's
// single-goroutine-per-world discipline (the engine's shards each own
// their worlds outright), so sharing is free. Which views hold a block
// is a bit each on its record; the rest that makes replicas *different*
// — tip choice, canonical hashes by height, TipEvent listeners — stays in
// the per-node Chain view (ADR-028).
type Executor struct {
	params Params
	reg    *vm.Registry

	genesis *Block
	blocks  map[crypto.Hash]*record       // valid blocks, any fork
	invalid map[*Block]error              // cached rejections, by block object
	txIndex map[crypto.Hash][]crypto.Hash // txid -> blocks containing it; no coinbase

	// opIndex maps a contract address to the blocks whose transactions
	// deployed or called it, so contract-activity accounting (grading)
	// reads O(ops) instead of rescanning the whole canonical chain.
	opIndex map[crypto.Address][]opRef

	// Pruning machinery: every live view (NewView) registers here so
	// the prune horizon can be computed as min(tip height) over views;
	// byHeight (blocks by height) drives the monotone sweeps from
	// pruneFloor (states) and retireFloor (whole blocks) upward.
	views      []*Chain
	byHeight   heights[[]crypto.Hash]
	pruneFloor uint64
	hashSlab   []crypto.Hash // what is left of the slabs addRef cuts index slots from
	opSlab     []opRef
	recordSlab []record // and of the one admit carves records from

	// History retirement (Params.RetireDepth): retireFloor is the
	// lowest retained height (0 while retirement is disabled or hasn't
	// advanced), ckpt the canonical block at that floor, and floor the
	// ledger state after ckpt — a base private to the executor, advanced
	// in place one delta at a time and therefore never handed out:
	// stateOf serves snapshots of it (State.clone, O(1)). nil until
	// retirement first advances (the genesis record's state is the base
	// until then).
	retireFloor uint64
	ckpt        crypto.Hash
	floor       *State

	stats ExecStats

	// layer is the buffers BuildBlock writes a block's layer in, slabs
	// what is left of the slabs it is sealed into, ctx the context every
	// deploy and call the executor applies runs in.
	layer, slabs blockDelta
	ctx          vm.Ctx
}

// record is what the executor holds of one admitted block. The block
// stays until retirement. state is dropped by pruning and set again on
// the endpoint of a deep read. delta, the block's own changes — its
// state's layer, taken by value — is kept from the moment the state of
// a block canonical in some view is pruned (or the block is
// re-executed) until the floor applies it: what stateOf re-mounts and
// retire folds instead of running the block again.
type record struct {
	block *Block
	state *State
	delta blockDelta
	kept  bool   // delta holds the block's changes
	views uint64 // a bit (Chain.bit) per view that holds the block
}

// MaxViews is how many views one executor holds: a bit each in a record.
const MaxViews = 64

// opRef locates one contract operation: the block carrying it and
// whether it was a call (false = deploy).
type opRef struct {
	block  crypto.Hash
	height uint64
	call   bool
}

// ExecStats counts the executor's work. Hit rate quantifies how much
// redundant execution the shared store absorbed: with N replica views
// each block costs one execution and N-1 hits.
type ExecStats struct {
	// Executed counts full ApplyBlock state transitions actually run
	// (genesis, Execute cache misses, and locally built blocks
	// committed via CommitBuilt — the build pass is their execution).
	Executed uint64
	// Hits counts Execute/CommitBuilt calls served from the memoized
	// result — including cached rejections of invalid blocks and
	// known-valid blocks whose state was pruned (the verdict is still
	// cached even when the state has to be re-derived).
	Hits uint64
	// Pruned counts per-block states dropped by depth-based pruning.
	Pruned uint64
	// Replays counts ApplyBlock runs performed solely to re-derive a
	// pruned state whose delta is gone (excluded from Executed so
	// accounting is identical with pruning on or off). 0 unless a fork
	// that was dead when it was pruned comes back to life; such a block
	// is re-executed at most once.
	Replays uint64
	// Retired counts whole blocks released by history retirement
	// (Params.RetireDepth).
	Retired uint64
	// StatesLive is the number of per-block states currently retained.
	StatesLive int
	// Candidates counts the mempool transactions BuildBlock applied to
	// the block under construction, once per pass that tried them, and
	// Rejected those that did not apply — work thrown away, most of it a
	// transaction whose turn has not come or has passed. ParkedSkips
	// counts offers of a parked candidate (ADR-020), ParkedHigh the most
	// one view held.
	Candidates, Rejected, ParkedSkips uint64
	ParkedHigh                        int
	// Sigs counts the signature verdicts this network's views computed
	// themselves, waited on a checker for, assumed and settled (ADR-021).
	Sigs crypto.SigTally
}

// NewExecutor builds a network's shared store with a deterministic
// genesis block minting alloc. Two NewExecutor calls with equal params
// and alloc produce the identical genesis, so independently
// constructed networks (or test fixtures) share one chain identity.
func NewExecutor(params Params, reg *vm.Registry, alloc GenesisAlloc) (*Executor, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = vm.NewRegistry()
	}
	gtx := genesisTx(alloc)
	genesis := NewBlock(Header{
		ChainID: params.ID,
		Parent:  crypto.ZeroHash,
		Height:  0,
		Time:    0,
		Bits:    uint8(params.DifficultyBits),
	}, []*Tx{gtx})
	genesis.Header.Seal(0)

	st, err := ApplyBlock(NewState(), reg, params, genesis)
	if err != nil {
		return nil, fmt.Errorf("chain: genesis invalid: %w", err)
	}
	// The genesis state is a base: every later block is a small layer.
	st = st.flatten()
	e := &Executor{
		params:  params,
		reg:     reg,
		genesis: genesis,
		blocks:  make(map[crypto.Hash]*record),
		invalid: make(map[*Block]error),
		txIndex: make(map[crypto.Hash][]crypto.Hash),
		opIndex: make(map[crypto.Address][]opRef),
	}
	e.stats.Executed++
	e.admit(genesis.Hash(), genesis, st)
	return e, nil
}

// NewView creates a replica view rooted at genesis. Views share the
// executor's blocks and states but choose tips independently — two
// views over one executor can sit on different forks. Each view also
// pins the prune horizon: nothing is pruned above
// min(view tips) − PruneDepth. At most MaxViews, made before retirement.
func (e *Executor) NewView() *Chain {
	gh := e.genesis.Hash()
	c := &Chain{
		exec:      e,
		bit:       1 << len(e.views),
		tip:       e.genesis,
		canonical: heights[crypto.Hash]{s: []crypto.Hash{gh}},
		parked:    map[crypto.Hash]*Tx{},
		parkedBy:  map[crypto.Hash][]crypto.Hash{},
	}
	e.blocks[gh].views |= c.bit
	e.views = append(e.views, c)
	return c
}

// Stats returns the execution counters.
func (e *Executor) Stats() ExecStats { return e.stats }

// SigTally is the tally every signature read of applyTx goes through: the
// engine makes it settle later, and settles it, when a checker runs.
func (e *Executor) SigTally() *crypto.SigTally { return &e.stats.Sigs }

// block returns an admitted block from any fork, nil when the network
// has not admitted it or has retired it.
func (e *Executor) block(h crypto.Hash) *Block {
	if r := e.blocks[h]; r != nil {
		return r.block
	}
	return nil
}

// dropState releases a record's memoized state.
func (e *Executor) dropState(r *record) {
	r.state = nil
	e.stats.StatesLive--
	e.stats.Pruned++
}

// stateOf returns the ledger state after a valid block, re-deriving it
// if pruning dropped it. The state is shared across every view —
// callers must treat it as read-only and branch with Child() before
// mutating.
func (e *Executor) stateOf(h crypto.Hash) (*State, bool) {
	if r := e.blocks[h]; r != nil {
		return e.stateFor(r)
	}
	return nil, false
}

// stateFor serves a record's state. A pruned one is rebuilt from the
// nearest retained ancestor state — or from a snapshot of the floor
// state when the walk reaches the retire floor first — by mounting one
// overlay per block on the way up and filling it from the block's
// retained delta; only a block whose delta is gone is re-executed (and
// its delta kept this time). The genesis state is never pruned, so the
// ancestor walk terminates. The re-derived endpoint is memoized again
// (it sits below the monotone prune floor and is never re-swept);
// intermediate states are not, so one deep read re-inserts at most one
// state.
func (e *Executor) stateFor(end *record) (*State, bool) {
	if end.state != nil {
		return end.state, true
	}
	var path []*record
	var st *State
	for r := end; st == nil; {
		if r.state != nil {
			st = r.state
		} else if e.floor != nil && r.block.Hash() == e.ckpt {
			st = e.floor.clone()
		} else {
			path = append(path, r)
			if r = e.blocks[r.block.Header.Parent]; r == nil {
				return nil, false
			}
		}
	}
	for _, r := range slices.Backward(path) {
		if r.kept { // re-mounted: the layer is the delta
			st = st.Child()
			st.own = r.delta
			continue
		}
		next, err := applyBlock(st, e.reg, e.params, r.block, &e.stats.Sigs, &e.ctx)
		if err != nil {
			// Unreachable: every stored block was validated once, and
			// re-execution is deterministic.
			panic(fmt.Sprintf("chain: replay of valid block %s failed: %v", r.block.Hash(), err))
		}
		e.stats.Replays++
		r.delta, r.kept = next.own, true
		st = next
	}
	end.state = st
	e.stats.StatesLive++
	return st, true
}

// memo answers for a block the network has judged before, counting the
// hit: the record of its hash h when it was admitted, the cached
// rejection of this very object when it was not. A rejection is not the
// hash's: a copy whose transaction carries another signature, or its id
// form, hashes alike, and its refusal must not refuse the honest block.
// Both are nil for a block seen for the first time.
func (e *Executor) memo(h crypto.Hash, b *Block) (*record, error) {
	r, err := e.blocks[h], e.invalid[b]
	if r != nil || err != nil {
		e.stats.Hits++
	}
	return r, err
}

// Execute validates b against its parent and memoizes the outcome.
// The first call per block hash runs the full state transition
// (structural header checks + ApplyBlock); every later call — from any
// view — returns the cached child state, or the cached rejection when
// it offers the very block object refused.
// An unknown parent is the one non-cacheable error: the parent may
// simply not have arrived yet.
func (e *Executor) Execute(b *Block) (*State, error) {
	h := b.Hash()
	if r, err := e.memo(h, b); err != nil {
		return nil, err
	} else if r != nil {
		// The verdict is memoized even when the state was pruned and
		// has to be re-derived, so Executed/Hits are identical with
		// pruning on or off.
		st, ok := e.stateFor(r)
		if !ok {
			return nil, blockErr("pruned block %s lost its ancestry", h)
		}
		return st, nil
	}
	parent := e.blocks[b.Header.Parent]
	if parent == nil || b.Header.Height < e.retireFloor { // under the floor: only genesis is held
		return nil, blockErr("unknown parent %s", b.Header.Parent)
	}
	if err := checkLinkage(b, parent.block); err != nil {
		e.invalid[b] = err
		return nil, err
	}
	ps, ok := e.stateFor(parent)
	if !ok {
		return nil, blockErr("no state for parent %s", b.Header.Parent)
	}
	st, err := applyBlock(ps, e.reg, e.params, b, &e.stats.Sigs, &e.ctx)
	e.stats.Executed++
	if err != nil {
		e.invalid[b] = err
		return nil, err
	}
	e.admit(h, b, st)
	return st, nil
}

// CommitBuilt seeds the store with a locally built block and the state
// BuildBlock computed for it, so a miner's own block costs the network
// zero re-executions: the build pass was the execution, and every
// other replica's Execute hits the cache. The caller guarantees built
// == ApplyBlock(parent state, b) — true by construction for
// Chain.BuildBlock output sealed afterwards (Seal only grinds the
// nonce; the transaction set is fixed).
func (e *Executor) CommitBuilt(b *Block, built *State) error {
	h := b.Hash()
	if r, err := e.memo(h, b); r != nil || err != nil {
		// Judged before; an admitted block's state is not needed back.
		return err
	}
	if e.blocks[b.Header.Parent] == nil || b.Header.Height < e.retireFloor {
		return blockErr("unknown parent %s", b.Header.Parent)
	}
	e.stats.Executed++
	e.admit(h, b, built)
	return nil
}

// checkLinkage verifies the parent-relative header invariants that
// ApplyBlock (which sees only the parent state, not the parent header)
// cannot. Failures are permanent properties of the block and therefore
// cacheable.
func checkLinkage(b, parent *Block) error {
	if b.Header.Height != parent.Header.Height+1 {
		return blockErr("height %d after parent height %d", b.Header.Height, parent.Header.Height)
	}
	if b.Header.Time < parent.Header.Time {
		return blockErr("time goes backwards")
	}
	return nil
}

// admit records a validated block, its state, its transactions, and
// its contract operations. The record is a slot carved from a slab of
// 64 (ADR-003); retire zeroes the slot, so a slab that lives on for its
// other records pins no retired block. Coinbases are not indexed: no
// FindTx caller asks for one.
func (e *Executor) admit(h crypto.Hash, b *Block, st *State) {
	if len(e.recordSlab) == 0 {
		e.recordSlab = make([]record, 64)
	}
	r := &e.recordSlab[0]
	e.recordSlab = e.recordSlab[1:]
	*r = record{block: b, state: st}
	e.blocks[h] = r
	e.stats.StatesLive++
	height := b.Header.Height
	at := e.byHeight.slot(e.retireFloor, height)
	*at = addRef(*at, h, &e.hashSlab)
	for _, tx := range b.Txs {
		switch tx.Kind {
		case TxCoinbase:
			continue
		case TxDeploy:
			a := tx.ContractAddr()
			e.opIndex[a] = addRef(e.opIndex[a], opRef{block: h, height: height, call: false}, &e.opSlab)
		case TxCall:
			e.opIndex[tx.Contract] = addRef(e.opIndex[tx.Contract], opRef{block: h, height: height, call: true}, &e.opSlab)
		}
		id := tx.ID()
		e.txIndex[id] = addRef(e.txIndex[id], h, &e.hashSlab)
	}
}

// addRef appends v to an index list. A new list starts in a slot carved
// from *slab with capacity one, so a second entry moves it out by append
// and a removal (dropBlockIndexes) stays inside it (ADR-003).
func addRef[V any](list []V, v V, slab *[]V) []V {
	if list == nil {
		if len(*slab) == 0 {
			*slab = make([]V, 64)
		}
		list, *slab = (*slab)[:0:1], (*slab)[1:]
	}
	return append(list, v)
}

// heights is a list by block height from the retire floor up: height h
// is entry h − floor of s[dead:]; at reads the zero T outside it. cut
// clears the entries retire releases and, once they are half of s, moves
// the live ones down over them: a long-lived world appends into one array.
type heights[T any] struct {
	s    []T
	dead int
}

func (l heights[T]) at(floor, h uint64) (t T) {
	if live := l.s[l.dead:]; h >= floor && h-floor < uint64(len(live)) {
		t = live[h-floor]
	}
	return t
}

// slot returns the entry at height h ≥ floor, growing the list to it.
func (l *heights[T]) slot(floor, h uint64) *T {
	for uint64(len(l.s)-l.dead) <= h-floor {
		l.s = append(l.s, *new(T))
	}
	return &l.s[l.dead+int(h-floor)]
}

// cut drops the entries under height to, cleared so they pin nothing.
func (l *heights[T]) cut(floor, to uint64) {
	n := l.dead + int(min(to-floor, uint64(len(l.s)-l.dead)))
	clear(l.s[l.dead:n])
	l.dead = n
	if 2*n >= len(l.s) {
		live := copy(l.s, l.s[n:])
		clear(l.s[live:])
		l.s, l.dead = l.s[:live], 0
	}
}

// prune advances the state-GC sweep. The horizon is
// min(tip height over all views) − PruneDepth: a state above it may
// still be a reorg pivot for some replica; a state below it is
// reachable only through a reorg deeper than PruneDepth, which stateOf
// serves from the retained deltas. The sweep cursor pruneFloor is
// monotone, so each height is visited once and the per-block cost is
// O(the block's delta). Block bodies, headers, and verdicts are never
// pruned; the genesis state is retained as the base of last resort. A
// swept block canonical in no view loses its index entries (tx→block,
// contract ops) and keeps no delta — if that fork ever comes back,
// stateOf re-executes it.
func (e *Executor) prune() {
	d := e.params.PruneDepth
	if d <= 0 || len(e.views) == 0 {
		return
	}
	minTip := e.views[0].tip.Header.Height
	for _, v := range e.views[1:] {
		if h := v.tip.Header.Height; h < minTip {
			minTip = h
		}
	}
	if minTip <= uint64(d) {
		return
	}
	horizon := minTip - uint64(d)
	for height := max(e.pruneFloor, 1); height < horizon; height++ {
		for _, bh := range e.byHeight.at(e.retireFloor, height) {
			r, dead := e.blocks[bh], e.deadFork(bh, height)
			if r.state != nil {
				if !dead {
					r.delta, r.kept = r.state.own, true // nothing is copied
				}
				e.dropState(r)
			}
			if dead {
				e.dropBlockIndexes(bh, r.block)
			}
		}
	}
	e.pruneFloor = horizon
	e.retire(minTip)
}

// retire advances the history-GC sweep (Params.RetireDepth): whole
// blocks below the retire horizon are released — their records (the
// views' bits with them), index entries, and every view's canonical
// hashes — after the floor state has been advanced to the new floor by
// folding the canonical blocks' deltas into it, in height order and in
// place. This is the pruned-full-node model: anything at or above the
// floor is re-derivable (floor state + retained deltas, bodies as the
// fallback), anything below it is gone, and a reorg attempting to cross
// the floor is rejected as an unknown parent. The genesis block is
// exempt (it anchors chain identity and deterministic reconstruction).
func (e *Executor) retire(minTip uint64) {
	rd := e.params.RetireDepth
	if rd <= 0 || minTip <= uint64(rd) {
		return
	}
	horizon := minTip - uint64(rd)
	if horizon <= e.retireFloor {
		return
	}
	// Every view must agree on the canonical block at the new floor.
	// RetireDepth exceeding every plausible reorg makes disagreement
	// pathological; if it happens anyway, retirement stalls (safe)
	// rather than guessing.
	first := e.views[0]
	ck := first.canonicalAt(horizon)
	if ck == (crypto.Hash{}) {
		return
	}
	for _, v := range e.views[1:] {
		if v.canonicalAt(horizon) != ck {
			return
		}
	}
	if e.floor == nil {
		e.ckpt = e.genesis.Hash()
		e.floor = e.blocks[e.ckpt].state.flatten()
	}
	// Views agreeing on ck agree on all of its ancestors, so view 0's
	// canonical hashes name the path from the old floor to the new one.
	for height := e.retireFloor + 1; height <= horizon; height++ {
		e.advanceFloor(first.canonicalAt(height))
	}
	for height := max(e.retireFloor, 1); height < horizon; height++ {
		for _, bh := range e.byHeight.at(e.retireFloor, height) {
			r := e.blocks[bh]
			if r.state != nil {
				// Memoized deep-read endpoints and late-arriving fork
				// blocks live below the prune floor; they die here.
				e.dropState(r)
			}
			e.dropBlockIndexes(bh, r.block)
			delete(e.blocks, bh)
			*r = record{}
			e.stats.Retired++
		}
	}
	e.byHeight.cut(e.retireFloor, horizon)
	for _, v := range e.views {
		v.canonical.cut(e.retireFloor, horizon)
	}
	e.retireFloor = horizon
}

// advanceFloor moves the floor state one block up, to the child bh of
// the current checkpoint: by the block's delta, else by its still
// retained state's own layer (a block admitted below the prune floor is
// never swept), else — the delta was dropped with a fork that looked
// dead — by re-executing the block on the floor.
func (e *Executor) advanceFloor(bh crypto.Hash) {
	r := e.blocks[bh]
	switch {
	case r.kept:
		e.floor.apply(&r.delta)
		r.delta, r.kept = blockDelta{}, false
	case r.state != nil:
		e.floor.apply(&r.state.own)
	default:
		st, err := applyBlock(e.floor, e.reg, e.params, r.block, &e.stats.Sigs, &e.ctx)
		if err != nil {
			panic(fmt.Sprintf("chain: replay of valid block %s failed: %v", bh, err))
		}
		e.stats.Replays++
		e.floor.apply(&st.own)
	}
	e.ckpt = bh
}

// deadFork reports whether the block is canonical in no live view —
// only then may its index entries be dropped (FindTx and contract-op
// accounting serve canonical history forever).
func (e *Executor) deadFork(bh crypto.Hash, height uint64) bool {
	for _, v := range e.views {
		if v.canonicalAt(height) == bh {
			return false
		}
	}
	return true
}

// dropBlockIndexes removes a dead fork block's tx→block and
// contract-op index entries. The block itself stays (re-announcement
// must still hit the verdict cache).
func (e *Executor) dropBlockIndexes(bh crypto.Hash, b *Block) {
	for _, tx := range b.Txs {
		switch tx.Kind {
		case TxCoinbase:
			continue
		case TxDeploy:
			e.dropOpRef(tx.ContractAddr(), bh)
		case TxCall:
			e.dropOpRef(tx.Contract, bh)
		}
		id := tx.ID()
		refs := e.txIndex[id]
		for i, r := range refs {
			if r == bh {
				refs = append(refs[:i], refs[i+1:]...)
				break
			}
		}
		if len(refs) == 0 {
			delete(e.txIndex, id)
		} else {
			e.txIndex[id] = refs
		}
	}
}

// dropOpRef removes one opIndex reference to block bh (order
// preserved; one per call matches one per admit append).
func (e *Executor) dropOpRef(addr crypto.Address, bh crypto.Hash) {
	refs := e.opIndex[addr]
	for i, r := range refs {
		if r.block == bh {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(e.opIndex, addr)
	} else {
		e.opIndex[addr] = refs
	}
}
