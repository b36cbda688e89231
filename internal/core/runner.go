package core

import (
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/protocol"
	"repro/internal/xchain"
)

// Runner is the uniform lifecycle the orchestration engine
// (internal/engine) multiplexes: every commitment protocol in this
// repository — AC3WN, AC3TW, and the HTLC baselines in internal/swap
// — runs on the internal/protocol reconciler runtime, drives itself
// off the shared simulator once started, exposes a cheap quiescence
// check, can be retired, and grades its outcome from ground-truth
// chain views. The engine steps a whole shard of concurrent Runners
// on one virtual clock and retires each as it settles.
type Runner interface {
	// Start begins the protocol at the current virtual time.
	Start()
	// Settled reports whether the run has reached a stable terminal
	// state: a decision exists and every deployed asset contract has
	// left Published. Engines still apply their own deadline on top,
	// because a crashed participant can hold a run open indefinitely
	// (that is the paper's Section 1 hazard, not a bug).
	Settled() bool
	// Stop retires the run: subscriptions are canceled and timers go
	// inert, so finished transactions stop consuming simulator
	// events. Idempotent, and safe after crashes already tore the
	// subscriptions down.
	Stop()
	// Grade reads terminal contract states from ground-truth views.
	Grade() *xchain.Outcome
	// Events returns the run's timeline (a snapshot; safe to retain).
	Events() []protocol.Event
	// Marks returns the run's uniform phase boundaries — the
	// cross-protocol instrumentation points internal/trace derives
	// phase spans from.
	Marks() []protocol.Mark
}

// Settled reports run quiescence for AC3WN: the commit/abort decision
// is stable at depth d and every asset contract that made it on-chain
// has settled (redeemed or refunded) on the ground-truth view. An
// abort with nothing deployed is settled trivially — there is nothing
// at stake. A deploy that was submitted but not yet confirmed blocks
// quiescence: its transaction is kept alive across forks (EnsureTx),
// so the contract can still materialize after a refund decision — and
// must then be refunded, not stranded. Without this, a refund decided
// faster than a deploy confirms (easy under decision batching, where
// an AC2T can join a window that is already closing) reads as settled
// during exactly the gap in which the late contract appears.
func (r *Run) Settled() bool {
	if r.DecidedAt == 0 {
		return false
	}
	for i := range r.ownTx {
		if r.ownTx[i] != nil && !r.announced[i] {
			return false // submitted deploy still in flight
		}
	}
	deployed, settled := xchain.AllSettled(r.w, r.cfg.Graph, r.addrs)
	if !settled {
		return false
	}
	return deployed || r.DecidedOutcome == contracts.WitnessRefundAuthorized
}

// Settled reports run quiescence for AC3TW, mirroring AC3WN: Trent
// decided and every deployed contract left Published on the
// ground-truth view.
func (r *TWRun) Settled() bool {
	if r.decision == 0 {
		return false
	}
	deployed, settled := xchain.AllSettled(r.w, r.cfg.Graph, r.addrs)
	if !settled {
		return false
	}
	return deployed || r.decision == crypto.PurposeRefund
}

// participantKeys lists the signing keys for the one Graph.Sign each
// run performs at Start — every party contributing its own signature
// to ms(GD). No later step touches another party's key.
func participantKeys(ps []*xchain.Participant) []*crypto.KeyPair {
	keys := make([]*crypto.KeyPair, len(ps))
	for i, p := range ps {
		keys[i] = p.Key
	}
	return keys
}
