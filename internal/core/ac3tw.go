package core

import (
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TWConfig configures an AC3TW run (Section 4.1).
type TWConfig struct {
	Graph        *graph.Graph
	Participants []*xchain.Participant
	Initiator    *xchain.Participant
	Trent        *Trent
	// ConfirmDepth is the depth at which contracts count as deployed
	// (both for Trent's verification and participants').
	ConfirmDepth int
	// AbortAfter (>0): the initiator requests a refund signature if
	// the AC2T has not committed by then.
	AbortAfter sim.Time
	// RetryEvery is the base throttle interval for re-asking Trent:
	// after a refusal ("contracts not deep enough yet at my view"), or
	// after a request vanished into a crashed Trent — so the protocol
	// unblocks by itself the moment the witness comes back.
	RetryEvery sim.Time
}

// TWRun is one executing AC3TW commitment.
type TWRun struct {
	w   *xchain.World
	cfg TWConfig
	rt  *protocol.Runtime

	ms   *crypto.MultiSig
	msID crypto.Hash

	registered bool
	addrs      []crypto.Address
	ownTx      []*chain.Tx
	ownAddr    []crypto.Address
	confirmed  []bool
	announced  []bool

	deployedOwn map[*xchain.Participant]bool
	abortDue    bool
	decision    crypto.Purpose
	decisionSig crypto.Signature
	terminal    []bool

	DecidedAt   sim.Time
	CompletedAt sim.Time
}

// twAnnounce is the off-chain deployment announcement.
type twAnnounce struct {
	EdgeIdx int
	Addr    crypto.Address
}

// twRegistered tells the other participants ms(D) is on file at
// Trent, so everyone deploys concurrently.
type twRegistered struct{}

// NewTW validates and prepares an AC3TW run.
func NewTW(w *xchain.World, cfg TWConfig) (*TWRun, error) {
	if cfg.Graph == nil || len(cfg.Participants) == 0 || cfg.Initiator == nil || cfg.Trent == nil {
		return nil, fmt.Errorf("core: incomplete AC3TW config")
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 5 * sim.Second
	}
	n := len(cfg.Graph.Edges)
	r := &TWRun{
		w:           w,
		cfg:         cfg,
		addrs:       make([]crypto.Address, n),
		ownTx:       make([]*chain.Tx, n),
		ownAddr:     make([]crypto.Address, n),
		confirmed:   make([]bool, n),
		announced:   make([]bool, n),
		terminal:    make([]bool, n),
		deployedOwn: make(map[*xchain.Participant]bool),
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

// Start begins the run: the initiator registers ms(D) at Trent, all
// participants deploy concurrently once that lands, the initiator
// requests the redemption signature when everything is confirmed, and
// everyone settles with Trent's signature as the secret.
func (r *TWRun) Start() {
	r.rt.Event(-1, "ac3tw started")
	r.ms = r.cfg.Graph.Sign(participantKeys(r.cfg.Participants)...)
	r.msID = r.ms.ID()
	if r.cfg.AbortAfter > 0 {
		r.rt.After(r.cfg.AbortAfter, func() {
			if r.decision == 0 {
				r.abortDue = true
				r.rt.DriveAll()
			}
		})
	}
	r.rt.Start()
}

// Resume re-arms a recovered participant and re-drives it; it
// re-learns the decision and every contract location from the shared
// run state and the chains. AC3TW tolerates participant crashes the
// same way AC3WN does — its single point of failure is Trent.
func (r *TWRun) Resume(p *xchain.Participant) { r.rt.Resume(p) }

// Stop retires the run.
func (r *TWRun) Stop() { r.rt.Stop() }

// Events returns the run's timeline.
func (r *TWRun) Events() []Event { return r.rt.Timeline() }

// Marks returns the run's phase boundaries (for trace span derivation).
func (r *TWRun) Marks() []protocol.Mark { return r.rt.Marks() }

// Registered reports whether ms(D) is on file at Trent.
func (r *TWRun) Registered() bool { return r.registered }

// MsID exposes the AC2T's multisig digest (set at Start).
func (r *TWRun) MsID() crypto.Hash { return r.msID }

// onMessage ingests announcements (the runtime re-drives p).
func (r *TWRun) onMessage(p, from *xchain.Participant, msg any) {
	switch m := msg.(type) {
	case twAnnounce:
		if r.addrs[m.EdgeIdx].IsZero() {
			r.addrs[m.EdgeIdx] = m.Addr
		}
		r.confirmed[m.EdgeIdx] = true
		r.noteAllConfirmed()
	case twRegistered:
		// Shared run state already carries the flag; the re-drive the
		// runtime issues after this handler is what matters.
	}
}

// drive is the reconciler step function.
func (r *TWRun) drive(p *xchain.Participant) {
	// Phase 0: registration, initiator-driven and retried until Trent
	// answers.
	if !r.registered {
		if p == r.cfg.Initiator {
			r.rt.Throttle(p, "register", 6*r.cfg.RetryEvery, func() { r.register() })
		}
		return
	}
	// Phase 1: deploy own edges (all participants, concurrently).
	if !r.deployedOwn[p] {
		r.deployOwnEdges(p)
	}
	// Phase 2: re-derive own-deploy confirmations from chain state and
	// announce them (crash-safe: no watch to lose).
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() || r.ownTx[i] == nil || r.announced[i] {
			continue
		}
		if !r.rt.EnsureTx(p, e.Chain, r.ownTx[i], r.cfg.ConfirmDepth) {
			continue
		}
		r.announced[i] = true
		r.addrs[i] = r.ownAddr[i]
		r.confirmed[i] = true
		r.rt.Event(i, "deploy confirmed")
		r.noteAllConfirmed()
		r.rt.Broadcast(p, twAnnounce{EdgeIdx: i, Addr: r.ownAddr[i]})
	}
	// Phase 3: the initiator asks Trent to witness — redeem once every
	// contract is confirmed, refund once the abort deadline passed.
	// Both are throttled retries: a refusal or a request lost in a
	// crashed Trent is re-asked, so the run unblocks when he returns.
	if r.decision == 0 {
		if p != r.cfg.Initiator {
			return
		}
		switch {
		case r.abortDue:
			r.rt.Throttle(p, "request-refund", 6*r.cfg.RetryEvery, func() { r.requestRefund() })
		case r.allConfirmed():
			r.rt.Throttle(p, "request-redeem", 6*r.cfg.RetryEvery, func() { r.requestRedeem() })
		}
		return
	}
	// Phase 4: settle p's edges with Trent's signature.
	r.settle(p)
}

// register stores ms(D) at Trent. A duplicate-registration reply
// means an earlier attempt landed but its response was lost — the
// store is intact, so it counts as success.
func (r *TWRun) register() {
	r.cfg.Trent.Register(r.cfg.Graph, r.ms, func(err error) {
		if r.rt.Stopped() || r.registered {
			return
		}
		if err != nil && !errors.Is(err, ErrAlreadyRegistered) {
			r.rt.Event(-1, "registration failed: "+err.Error())
			return
		}
		r.registered = true
		r.rt.Event(-1, "ms(D) registered at Trent")
		r.rt.Broadcast(r.cfg.Initiator, twRegistered{})
		r.rt.DriveAll()
	})
}

// requestRedeem asks Trent for the redemption signature.
func (r *TWRun) requestRedeem() {
	r.rt.Mark(protocol.PointDecisionTriggered)
	r.rt.Event(-1, "redeem signature requested from Trent")
	r.cfg.Trent.RequestRedeem(r.msID, r.addrs, r.cfg.ConfirmDepth, func(sig crypto.Signature, p crypto.Purpose, err error) {
		if r.rt.Stopped() {
			return
		}
		if err != nil {
			// Retried from drive on the next notification (or the
			// throttle window, whichever is later).
			r.rt.Event(-1, "Trent refused: "+err.Error())
			return
		}
		r.onDecision(p, sig)
	})
}

// requestRefund asks Trent to witness the abort.
func (r *TWRun) requestRefund() {
	r.rt.Mark(protocol.PointDecisionTriggered)
	r.cfg.Trent.RequestRefund(r.msID, func(sig crypto.Signature, p crypto.Purpose, err error) {
		if r.rt.Stopped() || err != nil {
			return
		}
		r.onDecision(p, sig)
	})
}

// onDecision records Trent's signature and drives everyone to settle.
func (r *TWRun) onDecision(p crypto.Purpose, sig crypto.Signature) {
	if r.decision != 0 {
		return
	}
	r.decision = p
	r.decisionSig = sig
	r.DecidedAt = r.w.Sim.Now()
	r.rt.Mark(protocol.PointDecisionConfirmed)
	r.rt.Event(-1, "Trent decided "+p.String())
	r.rt.DriveAll()
}

// deployOwnEdges publishes p's outgoing CentralizedSC contracts.
func (r *TWRun) deployOwnEdges(p *xchain.Participant) {
	r.deployedOwn[p] = true
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() || r.ownTx[i] != nil {
			continue
		}
		params := contracts.CentralizedParams{
			Recipient: e.To,
			MSDigest:  r.msID,
			Witness:   r.cfg.Trent.Key.Addr,
		}.Encode()
		tx, addr, err := p.Client(e.Chain).Deploy(contracts.TypeCentralized, params, e.Asset)
		if err != nil {
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

// noteAllConfirmed marks the lock-phase boundary the first time every
// edge contract is confirmed.
func (r *TWRun) noteAllConfirmed() {
	if r.allConfirmed() {
		r.rt.Mark(protocol.PointDeployConfirmed)
	}
}

func (r *TWRun) allConfirmed() bool {
	for _, c := range r.confirmed {
		if !c {
			return false
		}
	}
	return true
}

// settle makes p redeem its incoming edges (RD) or refund its
// outgoing edges (RF) using Trent's signature as the secret, and
// records terminal states as they land on p's view.
func (r *TWRun) settle(p *xchain.Participant) {
	secret := crypto.EncodeSignature(r.decisionSig)
	fn := contracts.FnRedeem
	if r.decision == crypto.PurposeRefund {
		fn = contracts.FnRefund
	}
	for i, e := range r.cfg.Graph.Edges {
		mine := (r.decision == crypto.PurposeRedeem && e.To == p.Addr()) ||
			(r.decision == crypto.PurposeRefund && e.From == p.Addr())
		if !mine || r.addrs[i].IsZero() {
			continue
		}
		client := p.Client(e.Chain)
		ct, ok := client.ContractNow(r.addrs[i], 0)
		if !ok {
			continue
		}
		sc, isSC := ct.(*contracts.CentralizedSC)
		if !isSC {
			continue
		}
		if sc.State != contracts.StatePublished {
			if !r.terminal[i] {
				r.terminal[i] = true
				r.rt.Event(i, "terminal "+sc.State.String())
				r.CompletedAt = r.w.Sim.Now()
			}
			continue
		}
		i := i
		r.rt.Throttle(p, fmt.Sprintf("%s-%d", fn, i), 6*r.cfg.RetryEvery, func() {
			if _, err := client.Call(r.addrs[i], fn, secret, 0); err == nil {
				p.Calls++
				r.rt.Event(i, fn+" submitted")
			}
		})
	}
}

// Addrs exposes per-edge contract addresses for grading.
func (r *TWRun) Addrs() []crypto.Address { return append([]crypto.Address(nil), r.addrs...) }

// Grade reads terminal contract states from ground-truth views and
// counts on-chain operations (AC3TW pays N deploys + N calls; the
// witness work happens off-chain at Trent).
func (r *TWRun) Grade() *xchain.Outcome {
	out := xchain.GradeGraph(r.w, r.cfg.Graph, r.addrs)
	out.Start = r.rt.StartedAt()
	out.End = r.rt.TimelineEnd(out.Start)
	out.Deploys, out.Calls = xchain.CountGraphOps(r.w, r.cfg.Graph, r.addrs)
	return out
}
