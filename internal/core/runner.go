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
// racing refund, a split decision chain — so each protocol says at
// which of its steps those hazards bite. A driver arms a row at a
// point and never inspects timeline labels or the runner's concrete
// type.
type Runner interface {
	// Start begins the protocol at the current virtual time.
	Start()
	// SettledAt reports whether the run has reached a terminal state
	// that holds depth blocks under the tips: a decision exists and
	// every deployed asset contract has left Published there. Engines
	// still apply their own deadline on top, because a crashed
	// participant can hold a run open indefinitely (that is the paper's
	// Section 1 hazard, not a bug). Settled is SettledAt(0).
	SettledAt(depth int) bool
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

	// DecisionChain is the blockchain the decision's fate rides on: the
	// witness chain for AC3WN, the first edge's asset chain otherwise.
	DecisionChain() chain.ID
	// Arm arms one fault row at a protocol point: the moment the
	// decision window opens (SCw's address is known for AC3WN, ms(D) is
	// registered at Trent for AC3TW, the first redeem reveals the secret
	// for HTLC) or the commit push (authorize_redeem submitted, the
	// redeem signature requested, the first redeem submitted). There,
	// or at once if the run is past it, fire runs once, after the step
	// that reached the point and in the same virtual instant, handed the
	// protocol's fault hooks: Crash takes down its critical failure point
	// — the last participant for AC3WN and HTLC, the trusted witness for
	// AC3TW — and Race has the last participant push a conflicting
	// refund. A run that never reaches the point never fires. Recover
	// brings a crash victim back either way and resumes it.
	Arm(at protocol.FaultPoint, fire func(protocol.Protocol))
	Recover()
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
