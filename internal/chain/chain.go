package chain

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Chain is one node's *view* of a blockchain: which blocks the node
// has seen, its canonical (longest-chain, first-seen-wins) tip choice,
// and its TipEvent listeners. Block records (body, ledger state, own
// changes) and the tx→block index live in the network's shared Executor
// — a view holds only membership and ordering. Blocks and states are
// immutable and shared across views.
type Chain struct {
	exec *Executor

	have      map[crypto.Hash]bool   // blocks this view has accepted
	tip       *Block                 // canonical head
	canonical map[uint64]crypto.Hash // height -> canonical block hash

	// listeners receive a TipEvent after every canonical-tip change.
	listeners []func(TipEvent)

	// Candidates BuildBlock need not try again yet, by id and by key (parked.go).
	parked   map[crypto.Hash]*Tx
	parkedBy map[crypto.Hash][]crypto.Hash

	// Reorgs counts canonical-tip switches to a non-descendant block;
	// the fork experiments read it.
	Reorgs int
	// MaxReorgDepth is the deepest reorg this view performed: the
	// largest number of canonical blocks disconnected by one tip
	// switch. Partition heals produce the deep ones — the adversity
	// aggregates surface it.
	MaxReorgDepth int
}

// GenesisAlloc maps addresses to initial balances minted in the
// genesis block.
type GenesisAlloc map[crypto.Address]vm.Amount

// genesisTx mints the initial allocation deterministically (sorted by
// address so every node builds the same genesis).
func genesisTx(alloc GenesisAlloc) *Tx {
	addrs := make([]crypto.Address, 0, len(alloc))
	for a := range alloc {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, func(a, b crypto.Address) int {
		return bytes.Compare(a[:], b[:])
	})
	tx := &Tx{Kind: TxGenesis}
	for _, a := range addrs {
		tx.Outs = append(tx.Outs, TxOut{Value: alloc[a], Owner: a})
	}
	if len(tx.Outs) == 0 {
		// A chain can start with no pre-mine; coinbases mint later.
		// Keep one burnable dust output to a sentinel so the genesis
		// tx is well-formed.
		var sentinel crypto.Address
		sentinel[0] = 1
		tx.Outs = append(tx.Outs, TxOut{Value: 1, Owner: sentinel})
	}
	return tx
}

// Executor returns the shared store this view reads through.
func (c *Chain) Executor() *Executor { return c.exec }

// Params returns the chain's configuration.
func (c *Chain) Params() Params { return c.exec.params }

// Registry returns the contract registry.
func (c *Chain) Registry() *vm.Registry { return c.exec.reg }

// Tip returns the canonical head block.
func (c *Chain) Tip() *Block { return c.tip }

// Height returns the canonical head height.
func (c *Chain) Height() uint64 { return c.tip.Header.Height }

// Block returns a block by hash from any fork this view has seen.
func (c *Chain) Block(h crypto.Hash) (*Block, bool) {
	if !c.have[h] {
		return nil, false
	}
	return c.exec.block(h), true
}

// HasBlock reports whether the view already contains h.
func (c *Chain) HasBlock(h crypto.Hash) bool {
	return c.have[h]
}

// CanonicalAt returns the canonical block at the given height.
func (c *Chain) CanonicalAt(height uint64) (*Block, bool) {
	h, ok := c.canonical[height]
	if !ok {
		return nil, false
	}
	return c.exec.block(h), true
}

// IsCanonical reports whether the block with hash h is on the
// canonical chain.
func (c *Chain) IsCanonical(h crypto.Hash) bool {
	if !c.have[h] {
		return false
	}
	return c.canonical[c.exec.block(h).Header.Height] == h
}

// DepthOf returns how many blocks are mined on top of block h on the
// canonical chain (0 for the tip). The second result is false when h
// is unknown or not canonical — a block on an abandoned fork has no
// depth, which is exactly why participants wait for depth d before
// trusting SCw state changes.
func (c *Chain) DepthOf(h crypto.Hash) (int, bool) {
	if !c.IsCanonical(h) {
		return 0, false
	}
	return int(c.tip.Header.Height - c.exec.block(h).Header.Height), true
}

// StateAt returns the ledger state after the block with hash h. The
// state is shared across views: treat it as read-only and branch with
// Child() before mutating. A state pruned by the executor's GC is
// re-derived transparently from the retained block deltas.
func (c *Chain) StateAt(h crypto.Hash) (*State, bool) {
	if !c.have[h] {
		return nil, false
	}
	return c.exec.stateOf(h)
}

// TipState returns the (shared, read-only) state at the canonical tip.
func (c *Chain) TipState() *State {
	st, _ := c.exec.stateOf(c.tip.Hash())
	return st
}

// StateAtDepth returns the state of the canonical block buried depth
// blocks under the tip (depth 0 = tip). It is how clients read
// "stable" contract state.
func (c *Chain) StateAtDepth(depth int) (*State, bool) {
	if depth < 0 || uint64(depth) > c.tip.Header.Height {
		return nil, false
	}
	b, ok := c.CanonicalAt(c.tip.Header.Height - uint64(depth))
	if !ok {
		return nil, false
	}
	return c.StateAt(b.Hash())
}

// AddBlock validates b against its parent and adds it to the view,
// switching tips when b extends a strictly longer chain (first-seen
// wins ties, as Section 2.1 describes miners accepting the first
// received block). Validation is memoized in the shared executor: the
// first view to see b pays for the state transition, every other view
// gets the cached verdict. It returns whether the canonical tip
// changed.
func (c *Chain) AddBlock(b *Block) (reorged bool, err error) {
	h := b.Hash()
	if c.have[h] {
		return false, nil
	}
	if !c.have[b.Header.Parent] {
		return false, blockErr("unknown parent %s", b.Header.Parent)
	}
	if _, err := c.exec.Execute(b); err != nil {
		return false, err
	}
	// The executor's admitted block, not b: a copy that hashes alike but
	// carries other bytes (a tampered signature) is not what was run.
	return c.adopt(c.exec.block(h)), nil
}

// AddMinedBlock adopts a block this node built itself, seeding the
// shared executor with the state BuildBlock already computed — the
// build pass was the block's one execution, so adopting it re-runs
// nothing and every peer's AddBlock hits the cache. built must be the
// state BuildBlock returned alongside b, with b sealed afterwards.
func (c *Chain) AddMinedBlock(b *Block, built *State) (reorged bool, err error) {
	h := b.Hash()
	if c.have[h] {
		return false, nil
	}
	if !c.have[b.Header.Parent] {
		return false, blockErr("unknown parent %s", b.Header.Parent)
	}
	if err := c.exec.CommitBuilt(b, built); err != nil {
		return false, err
	}
	return c.adopt(b), nil
}

// adopt records an executor-validated block in this view and applies
// the longest-chain rule.
func (c *Chain) adopt(b *Block) (reorged bool) {
	c.have[b.Hash()] = true
	if b.Header.Height > c.tip.Header.Height {
		c.setTip(b)
		return true
	}
	return false
}

// setTip switches the canonical chain to end at b, rebuilding the
// canonical index along the changed suffix and publishing a TipEvent
// naming the blocks that left the canonical chain. (What joined it a
// subscriber reads from Since.) b is higher than the old tip — adopt's
// longest-chain rule — so no canonical entry sits above it.
func (c *Chain) setTip(b *Block) {
	old := c.tip
	// Not a simple extension: a reorg if the old tip is abandoned.
	reorg := b.Header.Parent != old.Hash() && !c.isAncestor(old, b)
	if reorg {
		c.Reorgs++
	}
	c.tip = b
	var disconnected []*Block
	for cur := b; ; cur = c.exec.block(cur.Header.Parent) {
		h := cur.Hash()
		prev, ok := c.canonical[cur.Header.Height]
		if prev == h {
			break
		}
		if ok {
			disconnected = append(disconnected, c.exec.block(prev))
			c.wrote(disconnected[len(disconnected)-1].Txs...)
		}
		c.canonical[cur.Header.Height] = h
		c.wrote(cur.Txs...)
		if cur.Header.Height == 0 {
			break
		}
	}
	// The walk above collects newest-first; the event reports oldest-first.
	slices.Reverse(disconnected)
	if reorg && len(disconnected) > c.MaxReorgDepth {
		c.MaxReorgDepth = len(disconnected)
	}
	ev := TipEvent{Disconnected: disconnected}
	for _, fn := range c.listeners {
		fn(ev)
	}
	// Tip advanced: let the shared executor sweep states that are now
	// buried beyond the prune horizon of every view. Runs after the
	// listeners so any depth-bounded reads they issue stay cheap.
	c.exec.prune()
}

// isAncestor reports whether a is an ancestor of (or equal to) b. The
// walk stops as soon as it descends below a's height — an ancestor of
// b at a's height can only be a itself — so a true reorg costs
// O(fork length), not O(chain height).
func (c *Chain) isAncestor(a, b *Block) bool {
	target := a.Hash()
	for cur := b; cur != nil; {
		if cur.Header.Height < a.Header.Height {
			return false
		}
		if cur.Hash() == target {
			return true
		}
		if cur.Header.Height == 0 {
			return false
		}
		cur = c.exec.block(cur.Header.Parent)
	}
	return false
}

// FindTx locates a transaction on the canonical chain, returning its
// block and index within it. The index is network-wide (shared), so
// candidate blocks are filtered down to this view's canonical chain.
func (c *Chain) FindTx(id crypto.Hash) (*Block, int, bool) {
	for _, bh := range c.exec.txIndex[id] {
		if c.IsCanonical(bh) {
			b := c.exec.block(bh)
			if i := b.FindTx(id); i >= 0 {
				return b, i, true
			}
		}
	}
	return nil, 0, false
}

// TxDepth returns the canonical-chain depth of the block containing
// tx id, or false if the transaction is not on the canonical chain.
func (c *Chain) TxDepth(id crypto.Hash) (int, bool) {
	b, _, ok := c.FindTx(id)
	if !ok {
		return 0, false
	}
	return c.DepthOf(b.Hash())
}

// ContractOps counts the canonical-chain deployments of and calls to
// the given contract addresses, served from the executor's contract-op
// index — O(ops touching addrs), independent of chain height. Index
// entries survive pruning for every block canonical in any live view,
// so counts match a full-chain scan.
func (c *Chain) ContractOps(addrs map[crypto.Address]bool) (deploys, calls int) {
	for a := range addrs {
		for _, ref := range c.exec.opIndex[a] {
			if c.canonical[ref.height] != ref.block {
				continue
			}
			if ref.call {
				calls++
			} else {
				deploys++
			}
		}
	}
	return deploys, calls
}

// ContractAtDepth reads a contract's state as of the canonical block
// at the given depth. Use depth 0 for the tip.
func (c *Chain) ContractAtDepth(addr crypto.Address, depth int) (vm.Contract, bool) {
	st, ok := c.StateAtDepth(depth)
	if !ok {
		return nil, false
	}
	return st.Contract(addr)
}

// Since reports how the canonical chain moved since old was its tip:
// the blocks that joined above old, oldest first (appended to buf), or
// reorged when old has left the canonical chain — some block that was
// canonical then no longer is. Tip switches in between that net out to
// an extension of old read as that extension. A retired old reads as
// reorged.
func (c *Chain) Since(old *Block, buf []*Block) (connected []*Block, reorged bool) {
	if c.tip.Header.Parent == old.Hash() {
		return append(buf, c.tip), false // the common case: one new block
	}
	if !c.IsCanonical(old.Hash()) {
		return buf, true
	}
	for h := old.Header.Height + 1; h <= c.tip.Header.Height; h++ {
		buf = append(buf, c.exec.block(c.canonical[h]))
	}
	return buf, false
}

// NextBurial returns the lowest tip height above the current one at
// which ContractAtDepth(addr, depth) can answer differently through
// burial alone: a canonical deployment of or call to addr already sits
// less than depth blocks under the tip and surfaces at that depth when
// the tip reaches its height + depth. False when no such operation is
// pending — the answer then only moves with a block that touches addr
// or with a reorg. Served from the contract-op index.
func (c *Chain) NextBurial(addr crypto.Address, depth int) (uint64, bool) {
	// Operations at or below this height already show at depth
	// (negative while the chain is shorter than depth).
	shown := int64(c.tip.Header.Height) - int64(depth)
	var next uint64
	found := false
	for _, ref := range c.exec.opIndex[addr] {
		if int64(ref.height) > shown && c.canonical[ref.height] == ref.block && (!found || ref.height < next) {
			next, found = ref.height, true
		}
	}
	return next + uint64(depth), found
}

// HeadersFrom returns the canonical headers from (exclusive) the block
// with the given hash up to the tip, oldest first. It is what a
// participant submits as SPV evidence.
func (c *Chain) HeadersFrom(ancestor crypto.Hash) ([]*Header, bool) {
	b, ok := c.Block(ancestor)
	if !ok || !c.IsCanonical(ancestor) {
		return nil, false
	}
	out := make([]*Header, 0, c.tip.Header.Height-b.Header.Height)
	for hgt := b.Header.Height + 1; hgt <= c.tip.Header.Height; hgt++ {
		cb, ok := c.CanonicalAt(hgt)
		if !ok {
			return nil, false
		}
		out = append(out, cb.Header)
	}
	return out, true
}

// Locator names this view's canonical chain for a sync request, newest
// first: the tip, its parent and grandparent, then the blocks 4, 8,
// 16, … below the tip, ending with the lowest block the network still
// holds — genesis, or the retire floor once history retires (every view
// has released the blocks under it). Bitcoin's getheaders locator.
func (c *Chain) Locator() []crypto.Hash {
	tip, floor := c.tip.Header.Height, c.exec.retireFloor
	var loc []crypto.Hash
	for back := uint64(0); ; back = max(1, 2*back) {
		if back >= tip-floor {
			return append(loc, c.canonical[floor])
		}
		loc = append(loc, c.canonical[tip-back])
	}
}

// BlocksAfter answers a sync request: the branch ending at want from
// just after the newest block on it that locator names, oldest first,
// at most limit blocks. For a want this view has not seen the branch
// ends at its tip instead. Nil when the branch does not meet the
// locator before leaving what this view holds.
func (c *Chain) BlocksAfter(locator []crypto.Hash, want crypto.Hash, limit int) []*Block {
	if !c.have[want] {
		want = c.tip.Hash()
	}
	var branch []*Block
	for b := c.exec.block(want); !slices.Contains(locator, b.Hash()); b = c.exec.block(b.Header.Parent) {
		if !c.have[b.Header.Parent] {
			return nil
		}
		branch = append(branch, b)
	}
	slices.Reverse(branch)
	return branch[:min(len(branch), limit)]
}

// A block BuildBlock makes is one allocation with slots for its first
// transactions, coinbase included, and the first contract its layer
// writes (seal). It is 600 bytes, so with the 8-byte malloc header of a
// pointerful object over 512 bytes it fits the 640-byte size class; a
// fourth transaction slot would take the 704-byte one. Of the friendly
// HTLC run's blocks 69 % are the coinbase alone, 92 % hold three or fewer.
const (
	firstTxSlots  = 3
	contractSlots = 1
)

// BuildBlock assembles a block extending the canonical tip with as
// many valid mempool transactions as fit (the header is left unsealed;
// the miner grinds it), working directly on an overlay of the
// executor's shared tip state. Each candidate transaction is applied
// straight to that layer — ApplyTx writes nothing for one it rejects —
// so the returned state is exactly ApplyBlock's verdict on the returned
// block: miners hand both to AddMinedBlock and the network never
// executes the block again. invalid lists transactions that failed
// validation while capacity remained — candidates for the miner to
// purge; transactions merely skipped for capacity are not reported and
// should stay in the mempool. time is the miner's current virtual time.
// mempool is not retained. A rejected candidate is parked (ADR-020):
// failed without a trial until something its verdict read is written.
func (c *Chain) BuildBlock(miner crypto.Address, time sim.Time, mempool []*Tx) (b *Block, built *State, invalid []*Tx) {
	parent := c.tip
	if time < parent.Header.Time {
		time = parent.Header.Time
	}
	params := c.exec.params
	parentState, ok := c.exec.stateOf(parent.Hash())
	if !ok {
		panic(fmt.Sprintf("chain: no state for canonical tip %s", parent.Hash()))
	}
	st := parentState.Child()
	st.own, c.exec.layer = c.exec.layer, blockDelta{} // sealed below
	height := parent.Header.Height + 1

	// The block, its header, the coinbase and its output, and the first
	// slots of the block's transactions and written contracts are one
	// allocation.
	mined := &struct {
		b         Block
		h         Header
		coinbase  Tx
		out       [1]TxOut
		txs       [firstTxSlots]*Tx
		contracts [contractSlots]contractEntry
	}{out: [1]TxOut{{Value: params.BlockReward, Owner: miner}}}
	coinbase := &mined.coinbase
	*coinbase = Tx{Kind: TxCoinbase, Nonce: height, Outs: mined.out[:]} // a nonce per height: coinbase ids differ
	txs := append(mined.txs[:0], coinbase)
	if err := applyTx(st, c.exec.reg, params.ID, height, time, coinbase, &c.exec.stats.Sigs, &c.exec.ctx); err != nil {
		// Cannot happen with a well-formed coinbase; treat as fatal.
		panic(fmt.Sprintf("chain: coinbase rejected: %v", err))
	}
	// Multiple passes let transactions that spend outputs of other
	// pending transactions pack regardless of mempool order.
	pending := mempool
	capacity := params.MaxBlockTxs + 1 // + coinbase
	for {
		var failed []*Tx
		progress, full := false, false
		for _, tx := range pending {
			if len(txs) >= capacity {
				full = true
				break
			}
			if c.parked[tx.ID()] != nil {
				c.exec.stats.ParkedSkips++
			} else {
				c.exec.stats.Candidates++
				err := applyTx(st, c.exec.reg, params.ID, height, time, tx, &c.exec.stats.Sigs, &c.exec.ctx)
				if err == nil {
					txs = append(txs, tx)
					c.wrote(tx) // perhaps what a candidate parked earlier waits for
					progress = true
					continue
				}
				c.exec.stats.Rejected++
				if rej, ok := err.(*txRejection); ok && !rej.clock {
					c.park(tx)
				}
			}
			if failed == nil {
				failed = make([]*Tx, 0, len(pending))
			}
			failed = append(failed, tx)
		}
		if full {
			// Nothing is purged when the block filled up: skipped
			// transactions may simply be waiting for the next block.
			break
		}
		if !progress || len(failed) == 0 {
			invalid = failed
			break
		}
		pending = failed
	}
	c.exec.layer = st.own.seal(&c.exec.slabs, mined.contracts[:])
	c.wrote(txs...) // the tip is still the parent: no verdict that read this block's writes may stay
	blk := mined.b.assemble(&mined.h, Header{
		ChainID: params.ID,
		Parent:  parent.Hash(),
		Height:  height,
		Time:    time,
		Bits:    uint8(params.DifficultyBits),
	}, txs)
	return blk, st, invalid
}
