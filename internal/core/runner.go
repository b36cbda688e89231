package core

import (
	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/xchain"
)

// Runner is the uniform surface every driver of a commitment protocol
// works through — the orchestration engine (internal/engine), ac3sim,
// the atomicity experiment, the examples. Every protocol in this
// repository — AC3WN, AC3TW, and the HTLC baselines in internal/swap —
// runs on the internal/protocol reconciler runtime, drives itself off
// the shared simulator once started, exposes a cheap quiescence check,
// can be retired, and grades its outcome from ground-truth chain
// views. The engine steps a whole shard of concurrent Runners on one
// virtual clock and retires each as it settles.
//
// The second half is the fault surface: the paper compares the
// protocols facing the same hazards — a crash at decision time, a
// racing refund, a split decision chain — so each protocol says, as
// typed predicates and actions, where those hazards bite it. A driver
// never inspects timeline labels or the runner's concrete type.
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

	// Resume re-arms a recovered participant's subscriptions and
	// re-drives it; it re-learns everything else from the chains.
	Resume(p *xchain.Participant)
	// DecisionOpen reports that the decision window is open — the
	// moment Section 1's hazard analysis says network behavior decides
	// the outcome: SCw's address is known (AC3WN), ms(D) is registered
	// at Trent (AC3TW), the secret reveal was submitted (HTLC).
	DecisionOpen() bool
	// CommitPushed reports that the commit decision is being pushed:
	// authorize_redeem was submitted (AC3WN), the redeem signature was
	// requested (AC3TW), the first redeem was submitted (HTLC).
	CommitPushed() bool
	// Decided reports that a decision is final, whichever way it went.
	Decided() bool
	// DecisionChain is the blockchain the decision's fate rides on: the
	// witness chain for AC3WN, the first edge's asset chain otherwise.
	DecisionChain() chain.ID
	// Crash takes down the protocol's Section 1 critical failure point
	// — the last participant for AC3WN and HTLC, the trusted witness
	// for AC3TW — and reports who that is and whether the hazard has it
	// come back (a participant's site restarts) or stay down (the
	// witness under denial of service). Recover brings it back either
	// way and resumes it.
	Crash() (who string, comesBack bool)
	Recover()
	// RaceRefund makes rogue race the honest decision with a
	// conflicting refund. It reports whether the race is placed (or the
	// protocol has no decision to race: hashlocks); false means not yet
	// possible — call again later.
	RaceRefund(rogue *xchain.Participant) bool
}

// CrashAtCommit is the Section 1 hazard as the crash scenario's watch:
// the returned predicate takes r's critical failure point down the
// moment the commit is pushed, hands Crash's answer to crashed, and
// reports done. It also reports done, with nobody crashed, once the run
// decided without a commit push — it went to refund, and there is
// nothing to crash.
func CrashAtCommit(r Runner, crashed func(who string, comesBack bool)) func() bool {
	return func() bool {
		if !r.CommitPushed() {
			return r.Decided()
		}
		crashed(r.Crash())
		return true
	}
}

// signGraph is the one signing of ms(GD) each run performs at Start —
// every party contributing its own signature — counted on the world.
// It takes the signatures written ahead of need (xchain.Builder.Presign)
// and writes here any that are not written yet.
func signGraph(w *xchain.World, g *graph.Graph, ps []*xchain.Participant) *crypto.MultiSig {
	w.GraphSigs += uint64(len(ps))
	ms := &crypto.MultiSig{Digest: g.Digest(), Sigs: make([]crypto.Signature, 0, len(ps))}
	for _, p := range ps {
		ms.Sigs = append(ms.Sigs, w.Sigs.Sign(p.Key, ms.Digest))
	}
	return ms
}
