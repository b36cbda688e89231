// Package swap implements the baseline atomic cross-chain swap
// protocols the paper compares against: Nolan's two-party protocol
// [23] and Herlihy's single-leader generalization [16], both built on
// hashlock/timelock (HTLC) contracts.
//
// The implementation runs on the shared reconciler runtime
// (internal/protocol): the protocol is a step function driven by
// tip-change notifications and announcements, and the only timers are
// the protocol's own Δ-derived timelocks — the refunds of Nolan's
// construction — armed as one-shot runtime wakes. It reproduces the
// two properties the paper's evaluation leans on:
//
//   - Sequential structure: a participant publishes its outgoing
//     contracts only after all its incoming contracts are confirmed,
//     and redemption propagates backwards from the leader — so an
//     AC2T takes 2·Δ·Diam(D) end to end (Figure 8/10).
//   - Timelock fragility: a participant that crashes after the secret
//     is revealed but before redeeming loses its assets when the
//     timelock expires (the Section 1 "case against the current
//     proposals"). Resume works — a recovered participant re-derives
//     the revealed secret from chain state and retries its redeems —
//     but cannot rescue an expired timelock: the refund already
//     executed, which is exactly the hazard the atomicity experiment
//     measures and AC3WN's recovery avoids.
package swap

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// Event is a timeline entry for the Figure 8 phase rendering, shared
// with every protocol on the runtime.
type Event = protocol.Event

// Config configures one Herlihy/Nolan swap run.
type Config struct {
	Graph        *graph.Graph
	Participants []*xchain.Participant
	// Leader creates the hash secret and anchors the sequential
	// structure. Must be one of Participants.
	Leader *xchain.Participant
	// Delta is Δ: enough time to publish a contract (or change its
	// state) and have the change publicly recognized. Timelocks are
	// derived from it.
	Delta sim.Time
	// ConfirmDepth is how deep a contract must be before participants
	// treat it as published.
	ConfirmDepth int
}

// announceMsg is the off-chain "my contract is at this address"
// message.
type announceMsg struct {
	EdgeIdx int
	Addr    crypto.Address
	TxID    crypto.Hash
}

// Run is one executing swap.
type Run struct {
	w   *xchain.World
	cfg Config
	rt  *protocol.Runtime

	secret    []byte
	hashlock  crypto.Hash
	layers    []int   // deployment layer per edge (BFS distance of source from leader)
	timelocks []int64 // absolute timelock per edge

	addrs     []crypto.Address // announced contract address per edge
	ownTx     []*chain.Tx      // sender-side deploy submissions
	ownAddr   []crypto.Address
	confirmed []bool // deploy confirmed (announced) per edge
	announced []bool // sender announced edge i
	deployed  map[*xchain.Participant]bool
	secrets   map[*xchain.Participant][]byte // who has learned s

	redeemSubmitted []bool
	redeemConfirmed []bool
	refundSubmitted []bool

	// DeployPhaseEnd and RedeemPhaseEnd record Figure 8's two phase
	// boundaries (when the last contract was confirmed / redeemed).
	DeployPhaseEnd sim.Time
	RedeemPhaseEnd sim.Time
}

// New validates the configuration and prepares a run.
func New(w *xchain.World, cfg Config) (*Run, error) {
	if cfg.Graph == nil || len(cfg.Participants) == 0 || cfg.Leader == nil {
		return nil, fmt.Errorf("swap: incomplete config")
	}
	if ok, _ := cfg.Graph.HerlihyFeasible(); !ok {
		return nil, fmt.Errorf("swap: graph is not single-leader feasible (Section 5.3)")
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("swap: Delta must be positive")
	}
	byAddr := make(map[crypto.Address]*xchain.Participant)
	for _, p := range cfg.Participants {
		byAddr[p.Addr()] = p
	}
	for _, v := range cfg.Graph.Participants {
		if byAddr[v] == nil {
			return nil, fmt.Errorf("swap: no participant object for vertex %s", v)
		}
	}
	n := len(cfg.Graph.Edges)
	r := &Run{
		w:               w,
		cfg:             cfg,
		addrs:           make([]crypto.Address, n),
		ownTx:           make([]*chain.Tx, n),
		ownAddr:         make([]crypto.Address, n),
		confirmed:       make([]bool, n),
		announced:       make([]bool, n),
		redeemSubmitted: make([]bool, n),
		redeemConfirmed: make([]bool, n),
		refundSubmitted: make([]bool, n),
		deployed:        make(map[*xchain.Participant]bool),
		secrets:         make(map[*xchain.Participant][]byte),
	}
	rt, err := protocol.New(protocol.Config{
		World:        w,
		Participants: cfg.Participants,
		Chains:       cfg.Graph.Chains(),
		Drive:        r.drive,
		OnMessage:    r.onMessage,
	})
	if err != nil {
		return nil, err
	}
	r.rt = rt
	return r, nil
}

// Start begins the swap at the current virtual time.
func (r *Run) Start() {
	r.secret = []byte(fmt.Sprintf("herlihy-secret-%d", r.cfg.Graph.Timestamp))
	r.hashlock = crypto.Sum(r.secret)
	r.secrets[r.cfg.Leader] = r.secret
	r.computeSchedule()
	r.rt.Event(-1, "swap started")
	// The runtime's initial drive makes the leader deploy
	// unconditionally; everyone else waits for their incoming
	// contracts, and every sender arms its refund timelocks.
	r.rt.Start()
}

// Resume re-arms a recovered participant and re-drives it: the step
// function re-derives the revealed secret and every contract state
// from the chains. Recovery after a timelock expiry finds the refund
// already executed — the Section 1 fragility, preserved by design.
func (r *Run) Resume(p *xchain.Participant) { r.rt.Resume(p) }

// Stop retires the run.
func (r *Run) Stop() { r.rt.Stop() }

// Events returns the run's timeline.
func (r *Run) Events() []Event { return r.rt.Timeline() }

// Marks returns the run's phase boundaries (for trace span derivation).
func (r *Run) Marks() []protocol.Mark { return r.rt.Marks() }

// computeSchedule derives deployment layers and timelocks: a contract
// whose sender is at BFS distance k from the leader deploys in step k
// and carries timelock start + (2·Diam − k + 1)·Δ, preserving
// Nolan's t1 > t2 ordering with a safety margin of one Δ.
func (r *Run) computeSchedule() {
	g := r.cfg.Graph
	start := r.w.Sim.Now()
	dist := bfsDistances(g, r.cfg.Leader.Addr())
	diam := g.Diameter()
	r.layers = make([]int, len(g.Edges))
	r.timelocks = make([]int64, len(g.Edges))
	for i, e := range g.Edges {
		k := dist[e.From]
		if k < 0 {
			// Unreachable from the leader (cannot happen for feasible
			// graphs, which are weakly connected with a working
			// leader); deploy last, defensively.
			k = diam
		}
		r.layers[i] = k
		r.timelocks[i] = int64(start) + int64(2*diam-k+1)*int64(r.cfg.Delta)
	}
}

// bfsDistances computes directed BFS distance from src over the
// graph's edges (-1 = unreachable).
func bfsDistances(g *graph.Graph, src crypto.Address) map[crypto.Address]int {
	dist := make(map[crypto.Address]int, len(g.Participants))
	for _, p := range g.Participants {
		dist[p] = -1
	}
	dist[src] = 0
	queue := []crypto.Address{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.EdgesFrom(u) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// onMessage records a confirmed contract announcement (the runtime
// re-drives the recipient, which advances its part of the protocol).
func (r *Run) onMessage(p, from *xchain.Participant, msg any) {
	if m, ok := msg.(announceMsg); ok {
		r.noteConfirmed(m.EdgeIdx, m.Addr)
	}
}

// drive is the reconciler step function.
func (r *Run) drive(p *xchain.Participant) {
	now := r.w.Sim.Now()
	// Sequential rule: the leader deploys unconditionally; everyone
	// else once every incoming edge is confirmed.
	if !r.deployed[p] && (p == r.cfg.Leader || r.incomingConfirmed(p.Addr())) {
		r.deployOutgoing(p)
	}
	// Re-derive own-deploy confirmations from chain state and announce
	// them. EnsureTx keeps submissions alive across forks and survives
	// crashes (no watch to lose).
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() || r.ownTx[i] == nil || r.announced[i] {
			continue
		}
		if !r.rt.EnsureTx(p, e.Chain, r.ownTx[i], r.cfg.ConfirmDepth) {
			continue
		}
		r.announced[i] = true
		r.rt.Event(i, "deploy confirmed")
		r.noteConfirmed(i, r.ownAddr[i])
		r.rt.Broadcast(p, announceMsg{EdgeIdx: i, Addr: r.ownAddr[i], TxID: r.ownTx[i].ID()})
	}
	// Learn s from chain state: a sender whose outgoing contract shows
	// a *confirmed* redemption extracts the secret from the redeem
	// call. Each hop therefore costs one Δ — the backward propagation
	// that makes the redemption phase sequential in Diam(D) (Figure 8).
	if r.secrets[p] == nil {
		r.learnSecret(p)
	}
	// Redeem incoming contracts: the leader once everything is
	// deployed, everyone else as soon as they know s.
	if s := r.secrets[p]; s != nil && (p != r.cfg.Leader || r.allConfirmed()) {
		r.redeemIncoming(p, s)
	}
	// Refund own contracts whose timelock expired; arm one-shot wakes
	// for the pending ones.
	r.refundExpired(p, now)
}

// deployOutgoing publishes all of p's outgoing contracts (once).
func (r *Run) deployOutgoing(p *xchain.Participant) {
	r.deployed[p] = true
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() || r.ownTx[i] != nil {
			continue
		}
		params := contracts.HTLCParams{
			Recipient: e.To,
			Hashlock:  r.hashlock,
			Timelock:  r.timelocks[i],
		}.Encode()
		tx, addr, err := p.Client(e.Chain).Deploy(contracts.TypeHTLC, params, e.Asset)
		if err != nil {
			// Underfunded sender: the swap will abort via timelocks.
			r.rt.Event(i, "deploy failed: "+err.Error())
			continue
		}
		p.Deploys++
		r.ownTx[i] = tx
		r.ownAddr[i] = addr
		r.rt.Mark(protocol.PointDeploySubmitted)
		r.rt.Event(i, "deploy submitted")
	}
}

// noteConfirmed records a confirmed contract (from the sender's own
// view or a peer's announcement) and marks the deploy-phase boundary.
func (r *Run) noteConfirmed(i int, addr crypto.Address) {
	if r.addrs[i].IsZero() {
		r.addrs[i] = addr
	}
	r.confirmed[i] = true
	if r.allConfirmed() && r.DeployPhaseEnd == 0 {
		r.DeployPhaseEnd = r.w.Sim.Now()
		r.rt.Mark(protocol.PointDeployConfirmed)
		r.rt.Event(-1, "all contracts deployed")
	}
}

// incomingConfirmed reports whether every edge into u is confirmed.
func (r *Run) incomingConfirmed(u crypto.Address) bool {
	for i, e := range r.cfg.Graph.Edges {
		if e.To == u && !r.confirmed[i] {
			return false
		}
	}
	return true
}

// allConfirmed reports whether every edge's contract is confirmed.
func (r *Run) allConfirmed() bool {
	for _, c := range r.confirmed {
		if !c {
			return false
		}
	}
	return true
}

// learnSecret extracts s from a confirmed redemption of one of p's
// outgoing contracts — how the secret travels along counterparty
// edges once it is revealed on-chain.
func (r *Run) learnSecret(p *xchain.Participant) {
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() || r.addrs[i].IsZero() {
			continue
		}
		client := p.Client(e.Chain)
		ct, ok := client.ContractNow(r.addrs[i], r.cfg.ConfirmDepth)
		if !ok {
			continue
		}
		if h, isH := ct.(*contracts.HTLC); !isH || h.State != contracts.StateRedeemed {
			continue
		}
		if tx, found := protocol.FindCall(client.Chain(), r.addrs[i], contracts.FnRedeem); found {
			r.secrets[p] = tx.Args
			return
		}
	}
}

// redeemIncoming makes p redeem its incoming contracts with the
// secret, and records the Figure 8 redemption boundary as redeems are
// publicly recognized (confirmed at depth d, the paper's Δ
// semantics).
func (r *Run) redeemIncoming(p *xchain.Participant, secret []byte) {
	for i, e := range r.cfg.Graph.Edges {
		if e.To != p.Addr() || r.addrs[i].IsZero() {
			continue
		}
		client := p.Client(e.Chain)
		ct, ok := client.ContractNow(r.addrs[i], 0)
		if !ok {
			continue
		}
		h, isH := ct.(*contracts.HTLC)
		if !isH {
			continue
		}
		if h.State == contracts.StateRedeemed {
			if r.redeemConfirmed[i] {
				continue
			}
			if deep, okDeep := client.ContractNow(r.addrs[i], r.cfg.ConfirmDepth); okDeep {
				if hd, isHd := deep.(*contracts.HTLC); isHd && hd.State == contracts.StateRedeemed {
					r.redeemConfirmed[i] = true
					r.rt.Mark(protocol.PointDecisionConfirmed)
					r.rt.Event(i, "redeem confirmed")
					r.RedeemPhaseEnd = r.w.Sim.Now()
				}
			}
			continue
		}
		if h.State != contracts.StatePublished {
			continue
		}
		i := i
		r.rt.Throttle(p, fmt.Sprintf("redeem-%d", i), r.retryEvery(), func() {
			if _, err := client.Call(r.addrs[i], contracts.FnRedeem, secret, 0); err == nil {
				p.Calls++
				if !r.redeemSubmitted[i] {
					r.redeemSubmitted[i] = true
					r.rt.Mark(protocol.PointDecisionTriggered)
					r.rt.Event(i, "redeem submitted")
				}
			}
		})
	}
}

// refundExpired submits p's refunds for its own contracts whose
// timelock has passed and which are still locked, arming a one-shot
// wake for each pending deadline.
func (r *Run) refundExpired(p *xchain.Participant, now sim.Time) {
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() {
			continue
		}
		refundAt := r.timelocks[i] + int64(r.cfg.Delta)/4
		if now < refundAt {
			r.rt.WakeAt(p, fmt.Sprintf("refund-due-%d", i), refundAt)
			continue
		}
		if r.addrs[i].IsZero() {
			continue
		}
		client := p.Client(e.Chain)
		ct, ok := client.ContractNow(r.addrs[i], 0)
		if !ok {
			continue
		}
		if h, isH := ct.(*contracts.HTLC); !isH || h.State != contracts.StatePublished {
			continue
		}
		i := i
		r.rt.Throttle(p, fmt.Sprintf("refund-%d", i), r.retryEvery(), func() {
			if _, err := client.Call(r.addrs[i], contracts.FnRefund, nil, 0); err == nil {
				p.Calls++
				if !r.refundSubmitted[i] {
					r.refundSubmitted[i] = true
					r.rt.Mark(protocol.PointDecisionTriggered)
					r.rt.Event(i, "refund submitted")
				}
			}
		})
	}
}

// retryEvery is the throttle interval for re-submitting redeem/refund
// calls that have not landed yet (a quarter Δ, at least a second).
func (r *Run) retryEvery() sim.Time {
	if d := r.cfg.Delta / 4; d > sim.Second {
		return d
	}
	return sim.Second
}

// Addrs exposes the per-edge contract addresses (for grading).
func (r *Run) Addrs() []crypto.Address { return append([]crypto.Address(nil), r.addrs...) }

// Settled reports run quiescence for the engine's core.Runner
// contract: at least one asset contract made it on-chain and every
// announced contract has left Published on the ground-truth view.
// HTLC runs have no explicit decision — redeems and timelocked
// refunds are the decision — so deployment-complete is the earliest
// meaningful check. The sequential structure guarantees no new
// contract appears after the announced ones settle: deploys strictly
// precede redemption, and refunds only start at the timelocks.
func (r *Run) Settled() bool {
	deployed, settled := xchain.AllSettled(r.w, r.cfg.Graph, r.addrs)
	return deployed && settled
}

// Grade reads terminal contract states from ground-truth views and
// counts the on-chain operations the swap paid for (N deploys plus N
// redeem/refund calls — Section 6.2's baseline cost).
func (r *Run) Grade() *xchain.Outcome {
	out := xchain.GradeGraph(r.w, r.cfg.Graph, r.addrs)
	out.Start = r.rt.StartedAt()
	out.End = r.rt.TimelineEnd(out.Start)
	out.Deploys, out.Calls = xchain.CountGraphOps(r.w, r.cfg.Graph, r.addrs)
	return out
}

// Secret exposes the leader's secret (tests verifying reveal flow).
func (r *Run) Secret() []byte { return append([]byte(nil), r.secret...) }
