// Package p2p simulates the message-passing layer of Section 2.1:
// end-users multicast transactions to mining nodes, and miners gossip
// blocks to each other, over links with configurable delay and loss.
// Crash failures, recoveries, network partitions, and adversarial
// link conditions — the asynchronous-environment hazards the paper's
// introduction motivates — are injected here.
//
// Adversity model (see ADR-005):
//
//   - a LatencyModel carries a base delay, a jitter bound, and a
//     per-message loss probability; LAN/WAN/Geo presets describe the
//     heterogeneous link classes cross-chain deployments actually see;
//   - overlays (PushOverlay) raise the effective link conditions
//     temporarily with worst-wins semantics, so overlapping adversity
//     windows compose deterministically in any order;
//   - SchedulePartition installs timed partition/heal windows on the
//     simulator clock, with an epoch guard so a superseding partition
//     is not un-done by an older window's heal;
//   - every loss draw comes from the network's own forked RNG, so runs
//     remain a pure function of the seed regardless of worker count.
package p2p

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// NodeID identifies a network endpoint (miner or client).
type NodeID int

// Handler consumes a delivered message.
type Handler func(from NodeID, payload any)

// LatencyModel samples a one-way link delay and a per-message loss
// probability.
type LatencyModel struct {
	// Base is the minimum propagation delay.
	Base sim.Time
	// Jitter adds a uniform random extra in [0, Jitter).
	Jitter sim.Time
	// Loss is the probability in [0, 1) that a message is dropped in
	// flight. Zero-loss links consume no extra randomness, so enabling
	// loss on one network never perturbs another's draws.
	Loss float64
}

// Link-class presets: the heterogeneous conditions cross-chain
// deployments see. Base/jitter scales are chosen against the 10s
// block interval the experiments run at — Geo links make concurrent
// blocks (and therefore forks and confirmation-depth races) routine.

// WANLink models continental links.
func WANLink() LatencyModel { return LatencyModel{Base: 150, Jitter: 350} }

// GeoLink models intercontinental gossip: propagation is a
// significant fraction of the block interval.
func GeoLink() LatencyModel { return LatencyModel{Base: 800, Jitter: 1700} }

// Sample draws a delay.
func (l LatencyModel) Sample(rng *sim.RNG) sim.Time {
	d := l.Base
	if l.Jitter > 0 {
		d += rng.Int63n(l.Jitter)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// worse folds o into l with worst-wins semantics per field.
func (l LatencyModel) worse(o LatencyModel) LatencyModel {
	if o.Base > l.Base {
		l.Base = o.Base
	}
	if o.Jitter > l.Jitter {
		l.Jitter = o.Jitter
	}
	if o.Loss > l.Loss {
		l.Loss = o.Loss
	}
	return l
}

// Overlay is a removable adversity window pushed onto a network: while
// installed, the network's effective link model is the worst of the
// base model and every live overlay, field by field. Worst-wins makes
// overlapping windows commutative — the effective conditions do not
// depend on installation order, only on which overlays are live.
type Overlay struct {
	net     *Network
	model   LatencyModel
	removed bool
}

// Remove retires the overlay. Idempotent.
func (o *Overlay) Remove() {
	if o == nil || o.removed {
		return
	}
	o.removed = true
	live := o.net.overlays[:0]
	for _, ov := range o.net.overlays {
		if !ov.removed {
			live = append(live, ov)
		}
	}
	o.net.overlays = live
}

// Network is a simulated broadcast network of registered nodes.
type Network struct {
	sim     *sim.Sim
	rng     *sim.RNG
	latency LatencyModel

	handlers map[NodeID]Handler
	order    []NodeID // registration order, for deterministic broadcast
	crashed  map[NodeID]bool
	group    map[NodeID]int // partition group; nodes in different groups cannot talk

	overlays   []*Overlay
	deliveries *sim.Pool[delivery] // messages in flight
	// partEpoch increments on every partition-topology change; a
	// scheduled heal fires only if its own partition is still the
	// latest, so overlapping windows never un-split a newer partition.
	partEpoch uint64

	// Sent and Delivered count messages for diagnostics. Dropped
	// counts messages that were sent but never delivered — lost to the
	// loss model, to a partition, or to a crashed endpoint.
	Sent      uint64
	Delivered uint64
	Dropped   uint64
}

type delivery struct {
	n        *Network
	from, to NodeID
	payload  any
}

// NewNetwork creates a network on the given simulator.
func NewNetwork(s *sim.Sim, latency LatencyModel) *Network {
	return &Network{
		sim:        s,
		rng:        s.RNG().Fork(),
		latency:    latency,
		handlers:   make(map[NodeID]Handler),
		crashed:    make(map[NodeID]bool),
		group:      make(map[NodeID]int),
		deliveries: sim.NewPool(s, delivery.deliver),
	}
}

// Register attaches a node's handler. Registering an id twice panics.
func (n *Network) Register(id NodeID, h Handler) {
	if h == nil {
		panic("p2p: nil handler")
	}
	if _, dup := n.handlers[id]; dup {
		panic(fmt.Sprintf("p2p: node %d registered twice", id))
	}
	n.handlers[id] = h
	n.order = append(n.order, id)
}

// Next is the node after peer in registration order, skipping self.
func (n *Network) Next(peer, self NodeID) NodeID {
	i := slices.Index(n.order, peer) + 1
	if n.order[i%len(n.order)] == self {
		i++
	}
	return n.order[i%len(n.order)]
}

// PushOverlay installs an adversity window and returns its handle;
// the caller removes it when the window closes. See Overlay.
func (n *Network) PushOverlay(m LatencyModel) *Overlay {
	o := &Overlay{net: n, model: m}
	n.overlays = append(n.overlays, o)
	return o
}

// Effective returns the link model currently in force: the base model
// worsened by every live overlay.
func (n *Network) Effective() LatencyModel {
	m := n.latency
	for _, o := range n.overlays {
		m = m.worse(o.model)
	}
	return m
}

// reachable reports whether a message from a to b would currently be
// delivered (both alive, same partition group).
func (n *Network) reachable(a, b NodeID) bool {
	if n.crashed[a] || n.crashed[b] {
		return false
	}
	return n.group[a] == n.group[b]
}

// Reachable reports whether a and b can currently exchange messages:
// both alive and in the same partition group. End-user layers consult
// it so their multicasts respect the same connectivity model the
// gossip does — a client cannot hand a transaction to a miner on the
// far side of a partition.
func (n *Network) Reachable(a, b NodeID) bool { return n.reachable(a, b) }

// Send delivers payload from 'from' to 'to' after a sampled delay.
// Messages to crashed or partitioned-away nodes are dropped at send
// time; messages in flight when the receiver crashes — or when a
// partition forms between send and delivery — are dropped at delivery
// time (no delayed replay — crash-stop semantics). A message in
// flight across a heal boundary is delivered: it was sent while the
// endpoints could talk, and they can talk again when it lands. Lossy
// links (effective Loss > 0) additionally drop each message with the
// configured probability, drawn from the network's forked RNG.
func (n *Network) Send(from, to NodeID, payload any) {
	n.Sent++
	if !n.reachable(from, to) {
		n.Dropped++
		return
	}
	if _, ok := n.handlers[to]; !ok {
		n.Dropped++
		return
	}
	eff := n.Effective()
	if eff.Loss > 0 && n.rng.Float64() < eff.Loss {
		n.Dropped++
		return
	}
	n.deliveries.After(eff.Sample(n.rng), delivery{n, from, to, payload})
}

// deliver hands a message to its receiver unless a crash or a partition came between.
func (d delivery) deliver() {
	if d.n.crashed[d.to] || !d.n.reachable(d.from, d.to) {
		d.n.Dropped++
		return
	}
	d.n.Delivered++
	d.n.handlers[d.to](d.from, d.payload)
}

// Broadcast sends payload from 'from' to every other registered node.
func (n *Network) Broadcast(from NodeID, payload any) {
	for _, id := range n.order {
		if id == from {
			continue
		}
		n.Send(from, id, payload)
	}
}

// Crash stops a node: it receives nothing until Recover. In-flight
// messages to it are lost.
// kept: ROADMAP items 3(b) and 2(d), through miner.Node.Crash.
func (n *Network) Crash(id NodeID) { n.crashed[id] = true }

// Recover restarts a crashed node. It resumes receiving new messages;
// anything sent while it was down is gone (clients must re-poll or
// resubmit, as real wallets do).
func (n *Network) Recover(id NodeID) { delete(n.crashed, id) }

// Partition splits the network into groups; nodes in different groups
// cannot exchange messages. Nodes not mentioned in any group stay in
// group 0 together — a node absent from every group is partitioned
// away from every listed group, not from the other absentees.
func (n *Network) Partition(groups ...[]NodeID) {
	n.partEpoch++
	n.group = make(map[NodeID]int)
	for gi, g := range groups {
		for _, id := range g {
			n.group[id] = gi + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.partEpoch++
	n.group = make(map[NodeID]int)
}

// Partitioned reports whether any partition is currently in force.
// kept: ROADMAP items 3(b) and 2(d), the sweep's check that a fault row lifted.
func (n *Network) Partitioned() bool { return len(n.group) > 0 }

// SchedulePartition installs a timed partition window on the
// simulator clock: the network splits into groups at time at (clamped
// to now) and heals dur later — unless another partition or heal
// superseded this window meanwhile, in which case the stale heal is
// skipped. Overlapping windows do not compose: the most recent
// topology change always wins, so a later window replaces the split
// and its heal ends it — truncating an earlier longer window (the
// earlier heal, now stale, is skipped) just as a later longer window
// extends a shorter one. This is the engine's hook for scripted
// decision-window splits: windows are ordinary simulator events, so
// two runs with the same seed partition and heal at identical
// virtual instants.
func (n *Network) SchedulePartition(at, dur sim.Time, groups ...[]NodeID) {
	if at < n.sim.Now() {
		at = n.sim.Now()
	}
	if dur < 0 {
		dur = 0
	}
	n.sim.At(at, func() {
		n.Partition(groups...)
		epoch := n.partEpoch
		n.sim.After(dur, func() {
			if n.partEpoch == epoch {
				n.Heal()
			}
		})
	})
}

// ScheduleIsolation is the common split every adversity driver wants:
// node k (modulo the registered node count) alone against everyone
// else, as a SchedulePartition window. Isolating one replica starves
// whichever clients read through it while the majority keeps the
// chain moving — the heal then forces the minority's private fork
// through a deep reorg.
func (n *Network) ScheduleIsolation(at, dur sim.Time, k int) {
	if len(n.order) < 2 {
		return // nothing to split
	}
	if k %= len(n.order); k < 0 {
		k += len(n.order)
	}
	minority := []NodeID{n.order[k]}
	majority := make([]NodeID, 0, len(n.order)-1)
	majority = append(majority, n.order[:k]...)
	majority = append(majority, n.order[k+1:]...)
	n.SchedulePartition(at, dur, minority, majority)
}
