package miner

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Network is one simulated blockchain network: a set of mining nodes
// with identical genesis connected by their own p2p message layer.
// All nodes replicate one blockchain, so they share one chain.Executor
// — each node's Chain is an independent view (own tip choice, own
// canonical index) over the shared block store, and every block's
// state transition runs once per network instead of once per node.
// The AC3WN protocol composes several Networks — the asset chains plus
// one (or more, Section 5.2) witness networks.
type Network struct {
	Params chain.Params
	Sim    *sim.Sim
	P2P    *p2p.Network
	Nodes  []*Node

	// Signed counts the transactions this network's clients built and
	// signed, by kind — one ed25519 signature each, whether or not the
	// transaction ever lands (a host-side diagnostic).
	Signed [chain.TxCall + 1]uint64
	// Sigs, when not nil, checks submitted transactions' signatures ahead
	// of the block that first asks (ADR-021); Config.Sigs sets it.
	Sigs *crypto.SigChecker

	exec    *chain.Executor
	submits *sim.Pool[submission] // clients' multicasts in flight
}

type submission struct {
	c  *Client
	tx *chain.Tx
}

// Config describes a blockchain network to build.
type Config struct {
	Params  chain.Params
	Miners  int              // number of equal-share mining nodes
	Latency p2p.LatencyModel // block/tx propagation delays
	Alloc   chain.GenesisAlloc
	// Registry configures deployable contract types; nil means none.
	Registry *vm.Registry
	Sigs     *crypto.SigChecker // nil: signatures are verified where first read
}

// NewNetwork builds and starts a blockchain network. Every node gets
// an equal hash-power share.
func NewNetwork(s *sim.Sim, cfg Config) (*Network, error) {
	if cfg.Miners <= 0 || cfg.Miners > chain.MaxViews {
		return nil, fmt.Errorf("miner: %d miners, want 1 to %d (a view each on one executor)", cfg.Miners, chain.MaxViews)
	}
	p2pNet := p2p.NewNetwork(s, cfg.Latency)
	exec, err := chain.NewExecutor(cfg.Params, cfg.Registry, cfg.Alloc)
	if err != nil {
		return nil, err
	}
	net := &Network{Params: cfg.Params, Sim: s, P2P: p2pNet, Sigs: cfg.Sigs, exec: exec, submits: sim.NewPool(s, submission.deliver)}
	share := 1.0 / float64(cfg.Miners)
	rng := s.RNG().Fork()
	for i := 0; i < cfg.Miners; i++ {
		key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
		n := NewNode(s, p2pNet, p2p.NodeID(i), exec.NewView(), key, share)
		net.Nodes = append(net.Nodes, n)
	}
	return net, nil
}

// deliver hands a client's multicast to every node it can reach.
func (m submission) deliver() {
	for _, n := range m.c.net.Nodes {
		if n.Alive() && m.c.net.P2P.Reachable(m.c.node.ID, n.ID) {
			n.SubmitLocal(m.tx)
		}
	}
}

// Executor returns the network's shared chain store (block bodies,
// per-block states, and the ApplyBlock result cache every node's view
// reads through).
func (n *Network) Executor() *chain.Executor { return n.exec }

// BlocksMined sums blocks mined across the network's nodes.
func (n *Network) BlocksMined() int {
	total := 0
	for _, node := range n.Nodes {
		total += node.Mined
	}
	return total
}

// Start begins mining on every node.
func (n *Network) Start() {
	for _, node := range n.Nodes {
		node.Start()
	}
}

// Node returns the i-th mining node.
func (n *Network) Node(i int) *Node { return n.Nodes[i] }

// TotalReorgs sums reorg counts across nodes.
func (n *Network) TotalReorgs() int {
	total := 0
	for _, node := range n.Nodes {
		total += node.Chain.Reorgs
	}
	return total
}

// MaxReorgDepth returns the deepest reorg any node's view performed —
// the canonical-suffix length a partition heal or fork race rolled
// back on some replica.
func (n *Network) MaxReorgDepth() int {
	deepest := 0
	for _, node := range n.Nodes {
		if d := node.Chain.MaxReorgDepth; d > deepest {
			deepest = d
		}
	}
	return deepest
}

// MsgsDropped reports gossip messages this network's p2p layer
// accepted at send time but never delivered — lost to the loss model,
// a partition, or a crashed endpoint.
func (n *Network) MsgsDropped() uint64 { return n.P2P.Dropped }
