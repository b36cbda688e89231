package bench

import (
	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// atomicityScenario is one (protocol, failure schedule) cell of the
// safety experiment.
type atomicityScenario struct {
	name     string
	protocol engine.Protocol
	crash    string // "none", "after-reveal", "after-reveal-recover"
}

// Atomicity reproduces the paper's safety argument empirically
// (Section 1's motivating failure + the all-or-nothing guarantee of
// Section 5): over `runs` seeds per scenario, count commits, aborts,
// atomicity violations, and asset losses for the HTLC baseline versus
// AC3WN under crash schedules.
func Atomicity(seed uint64, runs int) *Result {
	if runs < 1 {
		runs = 1
	}
	scenarios := []atomicityScenario{
		{"HTLC, no failures", engine.ProtoHTLC, "none"},
		{"HTLC, victim crashes after reveal", engine.ProtoHTLC, "after-reveal"},
		{"HTLC, victim recovers too late", engine.ProtoHTLC, "after-reveal-recover"},
		{"AC3WN, no failures", engine.ProtoAC3WN, "none"},
		{"AC3WN, victim crashes at decision", engine.ProtoAC3WN, "after-reveal"},
		{"AC3WN, victim recovers later", engine.ProtoAC3WN, "after-reveal-recover"},
	}

	t := metrics.NewTable("Atomicity under crash failures (Section 1 scenario, N runs each)",
		"scenario", "runs", "committed", "aborted", "stuck-safe", "VIOLATIONS", "victim lost assets")
	ok := true
	for _, sc := range scenarios {
		var committed, aborted, stuck, violations, losses int
		for i := 0; i < runs; i++ {
			out := runAtomicityCase(seed+uint64(i)*101, sc)
			switch {
			case out.AtomicityViolated():
				violations++
			case out.Committed():
				committed++
			case out.Aborted():
				aborted++
			default:
				stuck++
			}
			if victimLost(out) {
				losses++
			}
		}
		t.AddRow(sc.name, runs, committed, aborted, stuck, violations, losses)

		// The paper's claims, checked hard:
		switch {
		case sc.protocol == engine.ProtoHTLC && sc.crash != "none" && violations != runs:
			ok = false // the baseline must lose atomicity on every crash run
		case sc.protocol == engine.ProtoAC3WN && violations != 0:
			ok = false // AC3WN must never violate
		case sc.protocol == engine.ProtoAC3WN && sc.crash == "after-reveal-recover" && committed != runs:
			ok = false // commitment: recovery must complete the AC2T
		case sc.crash == "none" && committed != runs:
			ok = false
		}
	}
	t.Note("VIOLATIONS = some contract redeemed while another refunded (the all-or-nothing failure)")
	t.Note("'stuck-safe' = crashed participant's asset still locked awaiting recovery — safe, and AC3WN completes it on recovery")
	return &Result{
		ID:     "atomicity",
		Title:  "all-or-nothing under crashes: HTLC baseline vs AC3WN",
		Output: t.String(),
		OK:     ok,
	}
}

// runAtomicityCase runs one seeded two-party swap — edge 0 alice → bob
// on bitcoin, edge 1 bob → alice on ethereum — under the scenario and
// grades it.
func runAtomicityCase(seed uint64, sc atomicityScenario) *xchain.Outcome {
	b := xchain.NewBuilder(seed)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	ids := []chain.ID{"bitcoin", "ethereum"}
	if sc.protocol == engine.ProtoAC3WN {
		ids = append(ids, "witness")
	}
	for _, id := range ids {
		b.Chain(xchain.DefaultChainSpec(id))
	}
	b.Fund(alice, "bitcoin", 1_000_000)
	b.Fund(bob, "ethereum", 1_000_000)
	w, err := b.Build()
	if err != nil {
		return &xchain.Outcome{}
	}
	g, err := graph.TwoParty(int64(seed), alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	if err != nil {
		return &xchain.Outcome{}
	}
	r, err := engine.NewRunner(w, sc.protocol, engine.AC2T{
		Graph:        g,
		Participants: []*xchain.Participant{alice, bob},
		Witness:      "witness",
		Depth:        confirmDepth,
	})
	if err != nil {
		return &xchain.Outcome{}
	}
	r.Start()
	if sc.crash != "none" {
		// Crash the protocol's critical failure point — bob, the last
		// participant — the moment the commit is pushed: the secret
		// reveal for the baseline, authorize_redeem for AC3WN.
		w.Sim.Poll(100*sim.Millisecond, core.CrashAtCommit(r, func(string, bool) {}))
	}

	until := 2 * sim.Hour // all baseline timelocks expire in here
	if sc.crash == "after-reveal-recover" {
		// Both protocols share the runtime's crash/resume lifecycle:
		// the recovered reconciler re-derives its state from the
		// chains and retries. AC3WN's retry redeems; the baseline's
		// finds the timelocked refund already executed.
		w.RunUntil(until)
		r.Recover()
		until += 90 * sim.Minute
	}
	w.RunOut(until)
	return r.Grade()
}

// victimLost reports whether the crash victim (bob) lost assets: what
// he paid (edge 1) was redeemed by alice while what he was owed (edge
// 0) was refunded to her or never locked. A violation the other way
// round costs alice, not the victim.
func victimLost(out *xchain.Outcome) bool {
	if len(out.Edges) != 2 {
		return false
	}
	in, paid := out.Edges[0], out.Edges[1]
	return paid.State == contracts.StateRedeemed && (!in.Deployed || in.State == contracts.StateRefunded)
}
