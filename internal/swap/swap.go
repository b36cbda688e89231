// Package swap implements the baseline atomic cross-chain swap
// protocols the paper compares against: Nolan's two-party protocol
// [23] and Herlihy's single-leader generalization [16], both built on
// hashlock/timelock (HTLC) contracts.
//
// The implementation is a thin instance over the shared reconciler
// runtime (internal/protocol): the protocol is a step function driven by
// tip-change notifications and announcements, the runtime keeps the
// deploy ledger and makes the redeem and refund calls, and the only
// timers are the protocol's own Δ-derived timelocks — the refunds of
// Nolan's construction — armed as one-shot runtime wakes. It reproduces
// the two properties the paper's evaluation leans on:
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
	"strconv"

	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// Config configures one Herlihy/Nolan swap run.
type Config struct {
	Graph        *graph.Graph
	Participants []*xchain.Participant
	// Leader creates the hash secret and anchors the sequential
	// structure. Must be one of Participants (New rejects it otherwise).
	Leader *xchain.Participant
	// Delta is Δ: enough time to publish a contract (or change its
	// state) and have the change publicly recognized. Timelocks are
	// derived from it.
	Delta sim.Time
	// ConfirmDepth is how deep a contract must be before participants
	// treat it as published.
	ConfirmDepth int
}

// Run is one executing swap.
type Run struct {
	*protocol.Runtime
	w   *xchain.World
	cfg Config

	secret    []byte
	hashlock  crypto.Hash
	timelocks []int64 // absolute timelock per edge

	secrets [][]byte // who has learned s, by participant index (Runtime.Index)
}

// New validates the configuration and prepares a run.
func New(w *xchain.World, cfg Config) (*Run, error) {
	r := &Run{w: w, cfg: cfg, secrets: make([][]byte, len(cfg.Participants))}
	var err error
	r.Runtime, err = protocol.New(protocol.Config{
		World:        w,
		Graph:        cfg.Graph,
		Participants: cfg.Participants,
		Initiator:    cfg.Leader,
		Protocol:     r,
	})
	if err != nil {
		return nil, err
	}
	if ok, _ := cfg.Graph.HerlihyFeasible(); !ok {
		return nil, fmt.Errorf("swap: graph is not single-leader feasible (Section 5.3)")
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("swap: Delta must be positive")
	}
	return r, nil
}

// OnAllConfirmed notes the lock phase's end on the timeline.
func (r *Run) OnAllConfirmed() { r.Event(-1, "all contracts deployed") }

// Secret is the settle phase's secret: for a redeem, s once p has
// learned it; a refund needs none, its timelock having passed.
func (r *Run) Secret(p *xchain.Participant, fn string, _ int, _ protocol.Asset) ([]byte, error) {
	if fn == contracts.FnRefund {
		return nil, nil
	}
	return r.secrets[r.Index(p)], nil
}

// OnSubmitted marks the decision triggered: hashlocks have no other
// decision than their calls, and a redeem reveals s — the first both
// opens the decision window and is the commit's push, where a row armed
// at either fires. Hashlocks have no decision a rogue could race
// (refunds are gated by timelocks alone): Race is the runtime's no-op.
func (r *Run) OnSubmitted(_ *xchain.Participant, fn string, _ int) {
	if fn == contracts.FnRedeem {
		r.Reach(protocol.AtDecisionWindow)
		r.Reach(protocol.AtCommitPush)
	}
	r.Mark(protocol.PointDecisionTriggered)
}

// Terminal records a redeem confirmed at depth d (the paper's Δ), Figure
// 8's redemption boundary: the only terminal state recorded.
func (r *Run) Terminal(p *xchain.Participant, fn string, i int, sc protocol.Asset) bool {
	if fn == contracts.FnRefund || sc.SwapState() != contracts.StateRedeemed {
		return false
	}
	if deep, ok := r.readHTLC(p, i, r.cfg.ConfirmDepth); !ok || deep.State != contracts.StateRedeemed {
		return false
	}
	r.Mark(protocol.PointDecisionConfirmed)
	r.Event(i, "redeem confirmed")
	return true
}

// Start begins the swap at the current virtual time.
func (r *Run) Start() {
	r.secret = strconv.AppendInt(append(make([]byte, 0, 40), "herlihy-secret-"...), r.cfg.Graph.Timestamp, 10)
	r.hashlock = crypto.Sum(r.secret)
	r.secrets[r.Index(r.cfg.Leader)] = r.secret
	r.computeSchedule()
	r.Event(-1, "swap started")
	// The runtime's initial drive makes the leader deploy
	// unconditionally; everyone else waits for their incoming
	// contracts, and every sender arms its refund timelocks.
	r.Runtime.Start()
}

// computeSchedule derives the timelocks: a contract whose sender is at
// BFS distance k from the leader deploys in step k (its layer) and
// carries timelock start + (2·Diam − k + 1)·Δ, preserving
// Nolan's t1 > t2 ordering with a safety margin of one Δ.
func (r *Run) computeSchedule() {
	g := r.cfg.Graph
	start := r.w.Sim.Now()
	var buf [8]int
	layers := g.Layers(r.cfg.Leader.Addr(), buf[:0])
	diam := g.Diameter()
	r.timelocks = make([]int64, len(g.Edges))
	for i, k := range layers {
		if k < 0 {
			// Unreachable from the leader (cannot happen for feasible
			// graphs, which are weakly connected with a working
			// leader); deploy last, defensively.
			k = diam
		}
		r.timelocks[i] = int64(start) + int64(2*diam-k+1)*int64(r.cfg.Delta)
	}
}

// Step is the reconciler step function.
func (r *Run) Step(p *xchain.Participant) {
	now := r.w.Sim.Now()
	// Sequential rule: the leader deploys unconditionally; everyone
	// else once every incoming edge is confirmed.
	if p == r.cfg.Leader || r.incomingConfirmed(p.Addr()) {
		// An underfunded sender's deploy fails; the swap then aborts via
		// the timelocks.
		r.DeployOwn(p, contracts.TypeHTLC, r.assetParams)
	}
	// Re-derive own-deploy confirmations from chain state and announce
	// them (crash-safe: no watch to lose).
	r.ConfirmOwn(p, r.cfg.ConfirmDepth)
	// Learn s from chain state: a sender whose outgoing contract shows
	// a *confirmed* redemption extracts the secret from the redeem
	// call. Each hop therefore costs one Δ — the backward propagation
	// that makes the redemption phase sequential in Diam(D) (Figure 8).
	if r.secrets[r.Index(p)] == nil {
		r.learnSecret(p)
	}
	// Redeem incoming contracts: the leader once everything is
	// deployed, everyone else as soon as they know s.
	if r.secrets[r.Index(p)] != nil && (p != r.cfg.Leader || r.AllConfirmed()) {
		protocol.Settle(r.Runtime, p, contracts.FnRedeem)
	}
	// Refund own contracts once their timelock expired — a sender's
	// contracts share one, a function of its layer — with a one-shot wake
	// armed for each that is pending.
	expired := true
	for i, e := range r.cfg.Graph.Edges {
		refundAt := r.timelocks[i] + int64(r.cfg.Delta)/4
		if e.From == p.Addr() && now < refundAt {
			r.WakeAt(p, "refund-due", refundAt)
			expired = false
		}
	}
	if expired {
		protocol.Settle(r.Runtime, p, contracts.FnRefund)
	}
}

// assetParams encodes the HTLC constructor for edge i: the shared
// hashlock and the edge's layer-derived timelock.
func (r *Run) assetParams(_ *xchain.Participant, i int, e graph.Edge) ([]byte, bool) {
	return contracts.HTLCParams{
		Recipient: e.To,
		Hashlock:  r.hashlock,
		Timelock:  r.timelocks[i],
	}.Encode(), true
}

// incomingConfirmed reports whether every edge into u is confirmed.
func (r *Run) incomingConfirmed(u crypto.Address) bool {
	for i, e := range r.cfg.Graph.Edges {
		if e.To == u && r.Addr(i).IsZero() {
			return false
		}
	}
	return true
}

// readHTLC reads edge i's contract on p's view at the given depth.
func (r *Run) readHTLC(p *xchain.Participant, i, depth int) (*contracts.HTLC, bool) {
	return protocol.Contract[*contracts.HTLC](r.Runtime, p, r.cfg.Graph.Edges[i].Chain, r.Addr(i), depth)
}

// learnSecret extracts s from a confirmed redemption of one of p's
// outgoing contracts — how the secret travels along counterparty
// edges once it is revealed on-chain.
func (r *Run) learnSecret(p *xchain.Participant) {
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() || r.Addr(i).IsZero() {
			continue
		}
		if h, ok := r.readHTLC(p, i, r.cfg.ConfirmDepth); !ok || h.State != contracts.StateRedeemed {
			continue
		}
		if tx, found := r.FindCall(p, e.Chain, r.Addr(i), contracts.FnRedeem, nil); found {
			r.secrets[r.Index(p)] = tx.Args
			return
		}
	}
}

// Settled reports run quiescence for the engine's core.Runner
// contract: at least one asset contract made it on-chain and every
// announced contract has left Published on the ground-truth view.
// HTLC runs have no explicit decision — redeems and timelocked
// refunds are the decision — so deployment-complete is the earliest
// meaningful check. The sequential structure guarantees no new
// contract appears after the announced ones settle: deploys strictly
// precede redemption, and refunds only start at the timelocks.
func (r *Run) Settled() bool { return r.SettledAt(0) }

// SettledAt is Settled read depth blocks under the tips.
func (r *Run) SettledAt(depth int) bool {
	deployed, settled := r.AssetsSettled(depth)
	return deployed && settled
}
