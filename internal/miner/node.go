// Package miner implements the mining nodes of the storage layer
// (Section 2.1): each node keeps its own view of the blockchain and a
// mempool, mines blocks at a rate proportional to its hash-power
// share, gossips blocks, resolves forks by longest chain, and serves
// the client library end-users submit transactions through.
package miner

import (
	"fmt"
	"slices"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// Messages exchanged between nodes (a client's transaction reaches the
// miners through SubmitLocal, not the gossip fabric).
type (
	// MsgBlock gossips a mined or adopted block.
	MsgBlock struct{ Block *chain.Block }
	// MsgGetBlocks asks a peer for the blocks that lead from the sender's
	// chain, named by its Chain.Locator, to Want: an orphan's parent.
	MsgGetBlocks struct {
		Locator []crypto.Hash
		Want    crypto.Hash
	}
	// MsgBlocks answers MsgGetBlocks with consecutive blocks, oldest first.
	MsgBlocks struct{ Blocks []*chain.Block }
)

const (
	// maxTxFailures bounds how often a mempool transaction may fail
	// validation during block building before the node purges it.
	maxTxFailures = 25

	// maxSyncBlocks caps one MsgBlocks reply, which its receiver executes
	// in the one event that delivers it. At twice the default stable depth
	// (30) one round trip heals any fork the protocols are meant to
	// survive; a node further behind asks again from the reply's end.
	maxSyncBlocks = 64
	// maxOrphans caps the orphan buffer; the oldest entry goes first. An
	// orphan waits one round trip for its ancestry and an evicted one
	// comes back in a sync reply, so the cap only binds on a node fed
	// blocks it cannot connect.
	maxOrphans = 64
	// orphanTTL, in block intervals, ages out an orphan whose ancestry
	// never came: by then its request has been retried at several peers.
	orphanTTL = 10
)

// orphan is a buffered block whose parent the node has not seen.
type orphan struct {
	block *chain.Block
	at    sim.Time // arrival
}

// Node is one mining node.
type Node struct {
	ID    p2p.NodeID
	Chain *chain.Chain
	Key   *crypto.KeyPair

	sim   *sim.Sim
	net   *p2p.Network
	rng   *sim.RNG
	share float64 // fraction of total hash power

	mempool    *mempool
	sealer     chain.Sealer
	orphans    []orphan    // oldest first
	want       crypto.Hash // the latest sync request's: from whom, since when
	wantFrom   p2p.NodeID
	wantSince  sim.Time
	alive      bool
	mining     bool
	interval   sim.Time    // network-wide mean block interval
	tipChanged *sim.Signal // notified after every canonical-tip change

	// Mined counts blocks this node mined; the throughput and attack
	// experiments read it.
	Mined int

	// Sync and backlog counters: MsgGetBlocks sent (retries included),
	// answered, the blocks served in the answers, retries to the next peer
	// after a timeout, the most orphans and pending transactions held, and
	// orphans evicted by the cap or by age.
	SyncSent, SyncAnswered, BlocksServed, SyncRetries uint64
	OrphansHigh, OrphansEvicted, MempoolHigh          int
}

// NewNode creates a node with its own chain view. share is the node's
// fraction of total network hash power; nodes with share 0 validate
// and relay but never mine.
func NewNode(s *sim.Sim, net *p2p.Network, id p2p.NodeID, c *chain.Chain, key *crypto.KeyPair, share float64) *Node {
	n := &Node{
		ID:         id,
		Chain:      c,
		Key:        key,
		sim:        s,
		net:        net,
		rng:        s.RNG().Fork(),
		share:      share,
		mempool:    &mempool{view: c, byID: make(map[crypto.Hash]held)},
		alive:      true,
		interval:   c.Params().BlockInterval,
		tipChanged: s.NewSignal(),
	}
	c.OnTipChange(n.onTipEvent)
	net.Register(id, n.handle)
	return n
}

// TipChanged is the node's notification signal: it fires (via the
// simulator clock, deterministically) after every canonical-tip change
// of this node's chain view. Clients and other watchers wait on it
// instead of polling the view — this is the event bus end-users'
// Watch* APIs ride on.
func (n *Node) TipChanged() *sim.Signal { return n.tipChanged }

// onTipEvent reacts to a canonical-tip change of the node's own view:
// transactions confirmed on a losing fork are re-announced (returned
// to the mempool so they get mined again — they are no longer on the
// canonical chain), and everyone waiting on the node's signal is woken.
func (n *Node) onTipEvent(ev chain.TipEvent) {
	if n.alive {
		for _, b := range ev.Disconnected {
			for _, tx := range b.Txs {
				switch tx.Kind {
				case chain.TxCoinbase, chain.TxGenesis:
					continue // fork-local; never re-announced
				}
				if _, _, onChain := n.Chain.FindTx(tx.ID()); onChain {
					continue // also included on the winning branch
				}
				n.mempool.add(tx)
			}
		}
		n.MempoolHigh = max(n.MempoolHigh, n.mempool.size())
	}
	n.tipChanged.Notify()
}

// Start begins the mining loop. Idempotent.
func (n *Node) Start() {
	if n.mining || n.share <= 0 {
		return
	}
	n.mining = true
	n.scheduleMining()
}

// scheduleMining draws the node's next block-success time from an
// exponential distribution with mean interval/share — a Poisson
// process, so the memoryless draw stays valid across tip changes.
func (n *Node) scheduleMining() {
	mean := sim.Time(float64(n.interval) / n.share)
	n.sim.After(n.rng.ExpTime(mean), func() {
		if !n.alive || !n.mining {
			return
		}
		n.tend()
		n.mineOne()
		n.scheduleMining()
	})
}

// mineOne assembles, seals, adopts and gossips one block on the
// node's current tip. The state computed while building is handed to
// the shared executor, so the network executes the block exactly once
// — here — and every peer's adoption is a cache hit.
func (n *Node) mineOne() {
	txs := n.mempool.ordered()
	b, built, invalid := n.Chain.BuildBlock(n.Key.Addr, n.sim.Now(), txs)
	n.punishInvalid(invalid)
	n.sealer.Seal(b.Header, n.rng.Uint64())
	if _, err := n.Chain.AddMinedBlock(b, built); err != nil {
		// Racing our own view cannot happen in a sequential sim.
		panic(fmt.Sprintf("miner: own block rejected: %v", err))
	}
	n.Mined++
	for _, tx := range b.Txs {
		n.mempool.remove(tx.ID())
	}
	n.net.Broadcast(n.ID, MsgBlock{Block: b})
}

// punishInvalid increments failure counts and purges transactions
// that keep failing (e.g. double spends that lost their race).
func (n *Node) punishInvalid(invalid []*chain.Tx) {
	for _, tx := range invalid {
		if n.mempool.fail(tx.ID()) > maxTxFailures {
			n.mempool.remove(tx.ID())
		}
	}
}

// Crash stops the node (crash-stop): mining halts, messages are
// dropped, the mempool, the orphan buffer and the pending sync request
// are lost. The chain view (persistent storage) survives.
// kept: ROADMAP items 3(b) and 9, a crash at an event index.
func (n *Node) Crash() {
	n.alive = false
	n.mining = false
	for _, tx := range n.mempool.ordered() {
		n.mempool.remove(tx.ID())
	}
	n.orphans, n.want = nil, crypto.Hash{}
	n.net.Crash(n.ID)
}

// Recover restarts a crashed node and its mining loop. The node
// catches up on the chain through normal gossip (sync requests).
func (n *Node) Recover() {
	if n.alive {
		return
	}
	n.alive = true
	n.net.Recover(n.ID)
	n.Start()
}

// Alive reports whether the node is running.
func (n *Node) Alive() bool { return n.alive }

// StopMining halts block production while keeping the node alive and
// relaying (used to quiesce a network before grading experiment
// outcomes).
func (n *Node) StopMining() { n.mining = false }

// handle processes a delivered message.
func (n *Node) handle(from p2p.NodeID, payload any) {
	if !n.alive {
		return
	}
	switch m := payload.(type) {
	case MsgBlock:
		n.acceptBlock(from, m.Block)
		n.tend()
	case MsgGetBlocks:
		if bs := n.Chain.BlocksAfter(m.Locator, m.Want, maxSyncBlocks); len(bs) > 0 {
			n.SyncAnswered++
			n.BlocksServed += uint64(len(bs))
			n.net.Send(n.ID, from, MsgBlocks{Blocks: bs})
		}
	case MsgBlocks:
		n.acceptBlocks(from, m.Blocks)
		n.tend()
	}
}

// SubmitLocal admits a transaction to this node's mempool (clients
// reach the nodes they can through it) unless it is already included on
// the canonical chain.
func (n *Node) SubmitLocal(tx *chain.Tx) {
	if tx == nil {
		return
	}
	id := tx.ID()
	if _, _, onChain := n.Chain.FindTx(id); onChain {
		return
	}
	n.mempool.add(tx)
	n.MempoolHigh = max(n.MempoolHigh, n.mempool.size())
}

// acceptBlock validates and adopts a block, buffering an orphan and
// asking the sender for the blocks that lead to it. Several orphans may
// wait on one parent (competing fork children, or gossip racing ahead of
// a catch-up), so the buffer keeps them all.
func (n *Node) acceptBlock(from p2p.NodeID, b *chain.Block) {
	if b == nil || n.Chain.HasBlock(b.Hash()) {
		return
	}
	if !n.Chain.HasBlock(b.Header.Parent) {
		n.buffer(b)
		// Ask again even for an already-buffered orphan: its re-arrival may
		// come from a peer that can answer where the last one did not.
		n.requestSync(from, b.Header.Parent, nil)
		return
	}
	oldTip := n.Chain.Tip()
	reorged, err := n.Chain.AddBlock(b)
	if err != nil {
		return // invalid block: ignore, as real nodes do
	}
	if reorged && b.Header.Parent != oldTip.Hash() {
		// Re-gossip only genuine fork switches. A plain extension was
		// already broadcast by its miner to every reachable node;
		// re-flooding it would double the network's block traffic for
		// nothing. Nodes that missed it (crashed, partitioned) catch up
		// through a sync request when the next block arrives.
		n.net.Broadcast(n.ID, MsgBlock{Block: b})
	}
	// Retire included transactions from the mempool.
	for _, tx := range b.Txs {
		n.mempool.remove(tx.ID())
	}
	// Every orphan waiting for this block can now be connected.
	var children []*chain.Block
	n.orphans = slices.DeleteFunc(n.orphans, func(o orphan) bool {
		if o.block.Header.Parent != b.Hash() {
			return false
		}
		children = append(children, o.block)
		return true
	})
	for _, child := range children {
		n.acceptBlock(from, child)
	}
}

// buffer keeps an orphan until its parent connects, evicting the oldest
// entry when the buffer is full.
func (n *Node) buffer(b *chain.Block) {
	if slices.ContainsFunc(n.orphans, func(o orphan) bool { return o.block.Hash() == b.Hash() }) {
		return
	}
	if len(n.orphans) == maxOrphans {
		n.evict(1)
	}
	n.orphans = append(n.orphans, orphan{block: b, at: n.sim.Now()})
	n.OrphansHigh = max(n.OrphansHigh, len(n.orphans))
}

// evict drops the k oldest orphans.
func (n *Node) evict(k int) {
	n.OrphansEvicted += k
	n.orphans = slices.Delete(n.orphans, 0, k)
}

// awaits reports whether a buffered orphan waits on block h.
func (n *Node) awaits(h crypto.Hash) bool {
	return slices.ContainsFunc(n.orphans, func(o orphan) bool { return o.block.Header.Parent == h })
}

// requestSync asks peer for the blocks that lead from this node's chain
// to want. A non-nil after heads the locator: the end of a capped reply,
// which need not have become canonical here.
func (n *Node) requestSync(peer p2p.NodeID, want crypto.Hash, after *chain.Block) {
	loc := n.Chain.Locator()
	if after != nil {
		loc = append([]crypto.Hash{after.Hash()}, loc...)
	}
	n.SyncSent++
	n.want, n.wantFrom, n.wantSince = want, peer, n.sim.Now()
	n.net.Send(n.ID, peer, MsgGetBlocks{Locator: loc, Want: want})
}

// acceptBlocks adopts a sync reply in order, stopping at the first block
// that does not connect, and asks the same peer for the rest when a full
// reply stopped short of what the latest request wants.
func (n *Node) acceptBlocks(from p2p.NodeID, bs []*chain.Block) {
	for _, b := range bs {
		if !n.Chain.HasBlock(b.Header.Parent) {
			return
		}
		n.acceptBlock(from, b)
	}
	if len(bs) == maxSyncBlocks && n.awaits(n.want) {
		n.requestSync(from, n.want, bs[len(bs)-1])
	}
}

// tend runs on events the node has anyway — a block arriving, its own
// mining tick — so recovery arms no timer: orphans older than orphanTTL
// go, and a sync request still unanswered after the longest round trip
// the links allow is sent again, to the next peer. A retry across a
// partition is dropped at send time.
func (n *Node) tend() {
	now := n.sim.Now()
	fresh := slices.IndexFunc(n.orphans, func(o orphan) bool { return now-o.at <= orphanTTL*n.interval })
	if fresh < 0 {
		fresh = len(n.orphans)
	}
	n.evict(fresh)
	link := n.net.Effective()
	if now-n.wantSince > 2*(link.Base+link.Jitter) && n.awaits(n.want) {
		n.SyncRetries++
		n.requestSync(n.nextPeer(n.wantFrom), n.want, nil)
	}
}

// nextPeer is the node after peer in the network's registration order,
// skipping this one.
func (n *Node) nextPeer(peer p2p.NodeID) p2p.NodeID {
	ids := n.net.Nodes()
	i := slices.Index(ids, peer) + 1
	if ids[i%len(ids)] == n.ID {
		i++
	}
	return ids[i%len(ids)]
}

// MempoolSize reports the number of pending transactions.
// kept: observed across packages by the engine's parked-record test and
// protocol's TestEnsureTxResubmitsAReorgDropAtOnce.
func (n *Node) MempoolSize() int { return n.mempool.size() }
