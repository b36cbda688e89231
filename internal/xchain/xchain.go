// Package xchain is the cross-chain runtime the protocol drivers
// (internal/swap for the Nolan/Herlihy baselines, internal/core for
// AC3TW and AC3WN) build on: a World of independent simulated
// blockchain networks sharing one virtual clock, Participants with a
// client on every chain, off-chain messages between them (participants
// exchanging contract locations, as any real swap does), and the
// Outcome bookkeeping the experiments grade — including the
// atomicity-violation check at the heart of the paper.
package xchain

import (
	"fmt"
	"slices"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/vm"
)

// World is a set of blockchain networks on one simulator.
type World struct {
	Sim  *sim.Sim
	Nets map[chain.ID]*miner.Network
	ids  []chain.ID

	// Drives counts step-function runs and WakeupsSkipped the tip-change
	// wake-ups a wait-set found nothing to do for, over every protocol
	// run hosted here (protocol.Runtime keeps them; host-side
	// diagnostics, not part of any graded result).
	Drives, WakeupsSkipped uint64
	Resubmits              Resubmits // same standing
	// GraphSigs counts the signatures put on graph multisignatures
	// ms(D) by the runs hosted here (same standing). Sigs holds the ones
	// written ahead of need (Builder.Presign; nil: none).
	GraphSigs uint64
	Sigs      *crypto.SigBook

	wakes *sim.Pool[wake] // WakeAt's timers in flight
}

// Resubmits counts protocol.Runtime.EnsureTx's re-multicasts: a window after
// a transaction was first missed, or at once after a reorg dropped it.
type Resubmits struct{ Window, Dropped uint64 }

// ChainSpec configures one chain of a world.
type ChainSpec struct {
	Params  chain.Params
	Miners  int
	Latency p2p.LatencyModel
}

// DefaultChainSpec is a convenient 3-miner chain with fast blocks for
// protocol tests.
func DefaultChainSpec(id chain.ID) ChainSpec {
	params := chain.DefaultParams(id)
	params.DifficultyBits = 6
	params.BlockInterval = 10 * sim.Second
	params.ConfirmDepth = 3
	return ChainSpec{
		Params:  params,
		Miners:  3,
		Latency: p2p.LatencyModel{Base: 100, Jitter: 200},
	}
}

// Builder assembles a World with funded participants.
type Builder struct {
	s            *sim.Sim
	specs        []ChainSpec
	participants []*Participant
	funding      []funding
	rng          *sim.RNG
	sigs         *crypto.SigChecker
	book         *crypto.SigBook
}

// NewBuilder starts a world definition on a fresh simulator.
func NewBuilder(seed uint64) *Builder {
	return NewBuilderOn(sim.New(seed), nil)
}

// NewBuilderOn starts a world definition on an existing simulator —
// typically one just Reset — so a harness executing many worlds in
// sequence (the engine's shard workers) can reuse one Sim value. The
// builder consumes entropy from the simulator's RNG, so a world built
// on a Reset(seed) sim is identical to one built with NewBuilder(seed).
// sigs, which may be nil, becomes every chain's miner.Config.Sigs.
func NewBuilderOn(s *sim.Sim, sigs *crypto.SigChecker) *Builder {
	return &Builder{s: s, sigs: sigs, rng: s.RNG().Fork()}
}

// funding is one genesis allocation Fund asked for.
type funding struct {
	p      *Participant
	id     chain.ID
	amount vm.Amount
}

// Chain adds a blockchain network.
func (b *Builder) Chain(spec ChainSpec) *Builder {
	b.specs = append(b.specs, spec)
	return b
}

// Participant creates a named participant with a fresh identity.
func (b *Builder) Participant(name string) *Participant { return b.Participants(name)[0] }

// Participants creates named participants with fresh identities, their
// key pairs derived in one batch that the builder's checker shares.
func (b *Builder) Participants(names ...string) []*Participant {
	ps, keys := make([]*Participant, len(names)), b.sigs.Keys(b.rng.Uint64, len(names))
	for i := range keys {
		ps[i] = &Participant{Name: names[i], Key: &keys[i]}
	}
	b.participants = append(b.participants, ps...)
	return ps
}

// Fund allocates genesis balance to a participant on a chain.
func (b *Builder) Fund(p *Participant, id chain.ID, amount vm.Amount) *Builder {
	b.funding = append(b.funding, funding{p, id, amount})
	return b
}

// Presign has ps sign digest ahead of need: Build queues the signatures
// as the checker's background work, in this order (ADR-021). Without a
// checker it does nothing.
func (b *Builder) Presign(digest crypto.Hash, ps []*Participant) {
	if b.sigs == nil {
		return
	}
	if b.book == nil {
		b.book = crypto.NewSigBook()
	}
	for _, p := range ps {
		b.book.Add(digest, p.Key)
	}
}

// Build wires the networks, attaches a client per participant per
// chain, starts mining on every chain, and returns the world.
func (b *Builder) Build() (*World, error) {
	w := &World{Sim: b.s, Nets: make(map[chain.ID]*miner.Network), Sigs: b.book, wakes: sim.NewPool(b.s, wake.fire)}
	for _, spec := range b.specs {
		alloc := chain.GenesisAlloc{}
		for _, f := range b.funding {
			if f.id == spec.Params.ID && f.amount > 0 {
				alloc[f.p.Key.Addr] += f.amount
			}
		}
		reg := vm.NewRegistry()
		contracts.RegisterAll(reg)
		reg.Sigs = b.book
		net, err := miner.NewNetwork(b.s, miner.Config{
			Params:   spec.Params,
			Miners:   spec.Miners,
			Latency:  spec.Latency,
			Alloc:    alloc,
			Registry: reg,
			Sigs:     b.sigs,
		})
		if err != nil {
			return nil, fmt.Errorf("xchain: chain %s: %w", spec.Params.ID, err)
		}
		net.Start()
		w.Nets[spec.Params.ID] = net
		w.ids = append(w.ids, spec.Params.ID)
	}
	tells := sim.NewPool(b.s, tell.deliver)
	for i, p := range b.participants {
		p.tells, p.chains, p.clients = tells, w.ids, make([]miner.Client, len(w.ids))
		for j, id := range w.ids {
			p.clients[j].Init(w.Nets[id], i%len(w.Nets[id].Nodes), p.Key)
		}
	}
	b.sigs.Background(b.book)
	return w, nil
}

// A Waker is what a timer armed by World.WakeAt calls when it fires.
type Waker interface {
	Woken(p *Participant, key string)
}

type wake struct { // a WakeAt timer in flight
	to  Waker
	p   *Participant
	key string
}

func (w wake) fire() { w.to.Woken(w.p, w.key) }

// WakeAt has to.Woken(p, key) called at virtual time t, no earlier than
// now. The timers of every run hosted here share one pool, so arming
// one allocates nothing once the pool is warm.
func (w *World) WakeAt(to Waker, p *Participant, key string, t sim.Time) {
	w.wakes.After(max(t-w.Sim.Now(), 0), wake{to, p, key})
}

// Chains returns the world's chain ids in creation order.
func (w *World) Chains() []chain.ID { return append([]chain.ID(nil), w.ids...) }

// Net returns a chain's network.
func (w *World) Net(id chain.ID) *miner.Network { return w.Nets[id] }

// View returns node 0's chain view — the "ground truth" observers
// grade outcomes against after the network quiesces.
func (w *World) View(id chain.ID) *chain.Chain { return w.Nets[id].Node(0).Chain }

// RunUntil advances virtual time.
func (w *World) RunUntil(t sim.Time) { w.Sim.RunUntil(t) }

// RunFor advances virtual time by d.
func (w *World) RunFor(d sim.Time) { w.Sim.RunUntil(w.Sim.Now() + d) }

// RunOut is how every single-AC2T driver ends a run: advance to until,
// stop mining, and let one more minute of gossip drain, so node 0's
// views — what a Runner's Grade reads — are the network's last word.
func (w *World) RunOut(until sim.Time) {
	w.RunUntil(until)
	w.StopMining()
	w.RunFor(sim.Minute)
}

// StopMining halts block production on every chain while keeping
// nodes alive and relaying (used to quiesce before grading).
func (w *World) StopMining() {
	for _, net := range w.Nets {
		for _, n := range net.Nodes {
			n.StopMining()
		}
	}
}

// Participant is an end-user taking part in AC2Ts: one identity, one
// client per chain, an off-chain inbox, and crash-stop semantics.
type Participant struct {
	Name string
	Key  *crypto.KeyPair

	tells *sim.Pool[tell]
	// clients holds a client per chain by value, in the world's chain
	// order, in an array of its own: a retired client pins a block.
	chains  []chain.ID
	clients []miner.Client
	inbox   func(to, from *Participant, msg any)
	crashed bool
}

// Client returns the participant's client on a chain.
func (p *Participant) Client(id chain.ID) *miner.Client {
	i := slices.Index(p.chains, id)
	if i < 0 {
		panic(fmt.Sprintf("xchain: %s has no client for chain %s", p.Name, id))
	}
	return &p.clients[i]
}

// Addr is the participant's identity address (same on every chain).
func (p *Participant) Addr() crypto.Address { return p.Key.Addr }

// Addrs lists the participants' addresses in order — the vertex list
// graph.Ring takes.
func Addrs(ps []*Participant) []crypto.Address {
	out := make([]crypto.Address, len(ps))
	for i, p := range ps {
		out[i] = p.Addr()
	}
	return out
}

// Crash stops the participant: all chain watches are canceled, the
// inbox goes deaf, submissions stop. On-chain state is unaffected —
// which is exactly why HTLC timelocks expire against crashed
// participants while AC3WN contracts wait for them.
func (p *Participant) Crash() {
	p.crashed = true
	for i := range p.clients {
		p.clients[i].Halt()
	}
}

// Recover restores a crashed participant. The protocol driver must
// re-arm its watches (protocol resume logic).
func (p *Participant) Recover() {
	p.crashed = false
	for i := range p.clients {
		p.clients[i].Restart()
	}
}

// Crashed reports whether the participant is down.
func (p *Participant) Crashed() bool { return p.crashed }

// Retire permanently releases the participant's runtime resources
// once its AC2T is graded: crash-stop if still up, close every chain
// client (idempotent and final — Recover/Restart after Close is a
// no-op) and go deaf for good. Retire schedules nothing and changes no
// chain state, so it is invisible to event ordering; it exists purely
// so a long-running engine shard's graded transactions become garbage
// instead of accumulating for the world's lifetime (the world keeps no
// reference to its participants).
func (p *Participant) Retire() {
	p.crashed = true
	for i := range p.clients {
		p.clients[i].Close() // halts it too
	}
	p.inbox = nil
}

// msgLatency is how long an off-chain message travels.
const msgLatency = 200 * sim.Millisecond

// OnMessage installs the off-chain inbox handler; it is told the
// recipient too, so one handler can serve every participant of a run.
func (p *Participant) OnMessage(h func(to, from *Participant, msg any)) { p.inbox = h }

// Tell sends an off-chain message to one participant (contract
// locations, abort notices — the coordination any real swap does over
// the internet). It arrives msgLatency later unless the recipient is
// down by then.
func (p *Participant) Tell(to *Participant, msg any) {
	if !p.crashed {
		p.tells.After(msgLatency, tell{p, to, msg})
	}
}

type tell struct { // an off-chain message in flight
	from, to *Participant
	msg      any
}

func (t tell) deliver() {
	if !t.to.crashed && t.to.inbox != nil {
		t.to.inbox(t.to, t.from, t.msg)
	}
}

// EdgeOutcome grades one sub-transaction after a run.
type EdgeOutcome struct {
	Edge  graph.Edge
	State contracts.SwapState // P (stuck), RD, or RF
	// Deployed reports whether the asset contract ever appeared
	// on-chain.
	Deployed bool
}

// Outcome grades a whole AC2T run.
type Outcome struct {
	Edges []EdgeOutcome
	// Start/End bound the run; End is when the last contract reached
	// a terminal state (or the observation deadline).
	Start, End sim.Time
	// Deploys/Calls total the on-chain operations across all
	// participants (fee accounting, Section 6.2).
	Deploys, Calls int
	// WitnessTxs/WitnessBytes are the decision transactions this AC2T
	// alone put on a witness chain and their encoded size — AC3WN's
	// per-AC2T authorize_* call; zero when decisions are batched (the
	// coordinator accounts for the shared commit) and for protocols
	// that decide off-chain.
	WitnessTxs, WitnessBytes int
}

// Committed reports all-redeemed.
func (o *Outcome) Committed() bool {
	if len(o.Edges) == 0 {
		return false
	}
	for _, e := range o.Edges {
		if e.State != contracts.StateRedeemed {
			return false
		}
	}
	return true
}

// Aborted reports all-refunded-or-never-deployed.
func (o *Outcome) Aborted() bool {
	if len(o.Edges) == 0 {
		return false
	}
	for _, e := range o.Edges {
		if e.Deployed && e.State != contracts.StateRefunded {
			return false
		}
	}
	return true
}

// AtomicityViolated reports the all-or-nothing failure the paper is
// about: some contract redeemed while another refunded (or stuck
// forever). A mix of RD and RF among deployed contracts is the hard
// violation; Pending contracts are graded by the caller's deadline
// semantics.
func (o *Outcome) AtomicityViolated() bool {
	rd, rf := 0, 0
	for _, e := range o.Edges {
		switch {
		case e.State == contracts.StateRedeemed:
			rd++
		case e.Deployed && e.State == contracts.StateRefunded:
			rf++
		}
	}
	return rd > 0 && rf > 0
}

// Latency returns End-Start.
func (o *Outcome) Latency() sim.Time { return o.End - o.Start }
