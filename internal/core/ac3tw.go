package core

import (
	"errors"
	"fmt"

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
	// Trent also sets the depth at which contracts count as deployed,
	// both for his verification and participants'.
	Trent *Trent
	// AbortAfter (>0): the initiator requests a refund signature if
	// the AC2T has not committed by then.
	AbortAfter sim.Time
}

// twRetryEvery is the base throttle interval for re-asking Trent: after
// a refusal ("contracts not deep enough yet at my view"), or after a
// request vanished into a crashed Trent — so the protocol unblocks by
// itself the moment the witness comes back.
const twRetryEvery = 5 * sim.Second

// TWRun is one executing AC3TW commitment.
type TWRun struct {
	*protocol.Runtime
	w   *xchain.World
	cfg TWConfig

	ms   *crypto.MultiSig
	msID crypto.Hash

	registered bool
	// redeemRequested: the initiator asked Trent for the redeem
	// signature at least once.
	redeemRequested bool
	abortDue        bool
	decision        crypto.Purpose
	decisionSig     crypto.Signature
}

// twRegistered tells the other participants ms(D) is on file at
// Trent, so everyone deploys concurrently.
type twRegistered struct{}

// NewTW validates and prepares an AC3TW run.
func NewTW(w *xchain.World, cfg TWConfig) (*TWRun, error) {
	if cfg.Trent == nil {
		return nil, fmt.Errorf("core: AC3TW needs a witness (Trent)")
	}
	r := &TWRun{w: w, cfg: cfg}
	var err error
	r.Runtime, err = protocol.New(protocol.Config{
		World:        w,
		Graph:        cfg.Graph,
		Participants: cfg.Participants,
		Initiator:    cfg.Initiator,
		Protocol:     r,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Secret is the settle phase's secret either way: Trent's signature.
func (r *TWRun) Secret(*xchain.Participant, string, int, protocol.Asset) ([]byte, error) {
	return crypto.EncodeSignature(r.decisionSig), nil
}

// Start begins the run: the initiator registers ms(D) at Trent, all
// participants deploy concurrently once that lands, the initiator
// requests the redemption signature when everything is confirmed, and
// everyone settles with Trent's signature as the secret.
func (r *TWRun) Start() {
	r.Event(-1, "ac3tw started")
	r.ms = signGraph(r.w, r.cfg.Graph, r.cfg.Participants)
	r.msID = r.ms.ID()
	if r.cfg.AbortAfter > 0 {
		r.After(r.cfg.AbortAfter, func() {
			if r.decision == 0 {
				r.abortDue = true
				r.DriveAll()
			}
		})
	}
	r.Runtime.Start()
}

// DecisionOpen reports that ms(D) is on file at Trent: from here on he
// can be asked to decide.
func (r *TWRun) DecisionOpen() bool { return r.registered }

// CommitPushed reports that the redeem signature was requested.
func (r *TWRun) CommitPushed() bool { return r.redeemRequested }

// Crash takes Trent offline — AC3TW's single point of failure. It
// tolerates participant crashes the way AC3WN does; under denial of
// service the witness stays down and the AC2T blocks.
func (r *TWRun) Crash() (who string, comesBack bool) {
	r.cfg.Trent.Crash()
	return "Trent", false
}

// Recover brings Trent back; the initiator's throttled retries reach
// him on its next drive and the run unblocks by itself.
func (r *TWRun) Recover() { r.cfg.Trent.Recover() }

// RaceRefund has a rogue ask Trent to witness the abort. His store's
// at-most-one-signature guard keeps the outcome atomic whichever
// request lands first.
func (r *TWRun) RaceRefund(*xchain.Participant) bool {
	if !r.registered {
		return false
	}
	r.cfg.Trent.RequestRefund(r.msID, func(crypto.Signature, crypto.Purpose, error) {})
	return true
}

// Step is the reconciler step function.
func (r *TWRun) Step(p *xchain.Participant) {
	// Phase 0: registration, initiator-driven and retried until Trent
	// answers.
	if !r.registered {
		if p == r.cfg.Initiator {
			r.Throttle(p, "register", 6*twRetryEvery, func() { r.register() })
		}
		return
	}
	// Phase 1: deploy own edges (all participants, concurrently).
	r.DeployOwn(p, contracts.TypeCentralized, r.assetParams)
	// Phase 2: re-derive own-deploy confirmations from chain state and
	// announce them (crash-safe: no watch to lose).
	r.ConfirmOwn(p, r.cfg.Trent.depth)
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
			r.Throttle(p, "request-refund", 6*twRetryEvery, func() { r.requestRefund() })
		case r.AllConfirmed():
			r.Throttle(p, "request-redeem", 6*twRetryEvery, func() { r.requestRedeem() })
		}
		return
	}
	// Phase 4: p redeems its incoming edges (RD) or refunds its outgoing
	// ones (RF). The secret is Trent's signature.
	fn := contracts.FnRedeem
	if r.decision == crypto.PurposeRefund {
		fn = contracts.FnRefund
	}
	protocol.Settle(r.Runtime, p, fn)
}

// register stores ms(D) at Trent. A duplicate-registration reply
// means an earlier attempt landed but its response was lost — the
// store is intact, so it counts as success.
func (r *TWRun) register() {
	r.cfg.Trent.Register(r.cfg.Graph, r.ms, func(err error) {
		if r.Stopped() || r.registered {
			return
		}
		if err != nil && !errors.Is(err, ErrAlreadyRegistered) {
			r.Event(-1, "registration failed: "+err.Error())
			return
		}
		r.registered = true
		r.Event(-1, "ms(D) registered at Trent")
		r.Broadcast(r.cfg.Initiator, twRegistered{})
		r.DriveAll()
	})
}

// requestRedeem asks Trent for the redemption signature.
func (r *TWRun) requestRedeem() {
	r.redeemRequested = true
	r.Mark(protocol.PointDecisionTriggered)
	r.Event(-1, "redeem signature requested from Trent")
	r.cfg.Trent.RequestRedeem(r.msID, r.Addrs(), func(sig crypto.Signature, p crypto.Purpose, err error) {
		if r.Stopped() {
			return
		}
		if err != nil {
			// Retried from drive on the next notification (or the
			// throttle window, whichever is later).
			r.Event(-1, "Trent refused: "+err.Error())
			return
		}
		r.onDecision(p, sig)
	})
}

// requestRefund asks Trent to witness the abort.
func (r *TWRun) requestRefund() {
	r.Mark(protocol.PointDecisionTriggered)
	r.cfg.Trent.RequestRefund(r.msID, func(sig crypto.Signature, p crypto.Purpose, err error) {
		if r.Stopped() || err != nil {
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
	r.Mark(protocol.PointDecisionConfirmed)
	r.Event(-1, "Trent decided "+p.String())
	r.DriveAll()
}

// assetParams encodes the CentralizedSC constructor for one edge: both
// commitment schemes are (ms(D), PK_T).
func (r *TWRun) assetParams(_ *xchain.Participant, _ int, e graph.Edge) ([]byte, bool) {
	return contracts.CentralizedParams{
		Recipient: e.To,
		MSDigest:  r.msID,
		Witness:   r.cfg.Trent.Key.Addr,
	}.Encode(), true
}
