// Package miner implements the mining nodes of the storage layer
// (Section 2.1): each node keeps its own view of the blockchain and a
// mempool, mines blocks at a rate proportional to its hash-power
// share, gossips blocks, resolves forks by longest chain, and serves
// the client library end-users submit transactions through.
package miner

import (
	"fmt"

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
	// MsgGetBlock asks a peer for a block by hash (orphan recovery).
	MsgGetBlock struct{ Hash crypto.Hash }
)

// maxTxFailures bounds how often a mempool transaction may fail
// validation during block building before the node purges it.
const maxTxFailures = 25

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
	orphans    map[crypto.Hash][]*chain.Block // parent hash -> waiting blocks
	alive      bool
	mining     bool
	interval   sim.Time    // network-wide mean block interval
	tipChanged *sim.Signal // notified after every canonical-tip change

	// Mined counts blocks this node mined; the throughput and attack
	// experiments read it.
	Mined int

	// Sync and backlog counters (ROADMAP item 2(c)): MsgGetBlock requests
	// this node sent and those it answered with a block, and the most
	// orphans and pending transactions it ever held.
	GetBlockSent     uint64
	GetBlockAnswered uint64
	OrphansHigh      int
	MempoolHigh      int
	orphaned         int // blocks in orphans now
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
		mempool:    &mempool{view: c, byID: make(map[crypto.Hash]*entry)},
		orphans:    make(map[crypto.Hash][]*chain.Block),
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
// dropped, the mempool is lost. The chain view (persistent storage)
// survives.
func (n *Node) Crash() {
	n.alive = false
	n.mining = false
	for _, tx := range n.mempool.ordered() {
		n.mempool.remove(tx.ID())
	}
	n.net.Crash(n.ID)
}

// Recover restarts a crashed node and its mining loop. The node
// catches up on the chain through normal gossip (orphan requests).
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
	case MsgGetBlock:
		if b, ok := n.Chain.Block(m.Hash); ok {
			n.GetBlockAnswered++
			n.net.Send(n.ID, from, MsgBlock{Block: b})
		}
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

// acceptBlock validates and adopts a block, buffering orphans and
// requesting their missing ancestors from the sender. Several orphans
// may wait on one parent (competing fork children, or gossip racing
// ahead of a catch-up), so the buffer keeps them all.
func (n *Node) acceptBlock(from p2p.NodeID, b *chain.Block) {
	if b == nil || n.Chain.HasBlock(b.Hash()) {
		return
	}
	if !n.Chain.HasBlock(b.Header.Parent) {
		h := b.Hash()
		buffered := false
		for _, o := range n.orphans[b.Header.Parent] {
			if o.Hash() == h {
				buffered = true
				break
			}
		}
		if !buffered {
			n.orphans[b.Header.Parent] = append(n.orphans[b.Header.Parent], b)
			n.orphaned++
			n.OrphansHigh = max(n.OrphansHigh, n.orphaned)
		}
		// Re-request the parent even for an already-buffered orphan: the
		// earlier MsgGetBlock may have gone to a peer that crashed before
		// answering, and this re-arrival is the only retry signal.
		n.GetBlockSent++
		n.net.Send(n.ID, from, MsgGetBlock{Hash: b.Header.Parent})
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
		// through the orphan-request path when the next block arrives.
		n.net.Broadcast(n.ID, MsgBlock{Block: b})
	}
	// Retire included transactions from the mempool.
	for _, tx := range b.Txs {
		n.mempool.remove(tx.ID())
	}
	// Every orphan waiting for this block can now be connected.
	if children, ok := n.orphans[b.Hash()]; ok {
		delete(n.orphans, b.Hash())
		n.orphaned -= len(children)
		for _, child := range children {
			n.acceptBlock(from, child)
		}
	}
}

// MempoolSize reports the number of pending transactions.
func (n *Node) MempoolSize() int { return n.mempool.size() }
