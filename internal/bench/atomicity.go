package bench

import (
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/xchain"
)

// atomicityScenario is one (protocol, failure schedule) cell of the
// safety experiment.
type atomicityScenario struct {
	name     string
	protocol string // "htlc" or "ac3wn"
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
		{"HTLC, no failures", "htlc", "none"},
		{"HTLC, victim crashes after reveal", "htlc", "after-reveal"},
		{"HTLC, victim recovers too late", "htlc", "after-reveal-recover"},
		{"AC3WN, no failures", "ac3wn", "none"},
		{"AC3WN, victim crashes at decision", "ac3wn", "after-reveal"},
		{"AC3WN, victim recovers later", "ac3wn", "after-reveal-recover"},
	}

	t := metrics.NewTable("Atomicity under crash failures (Section 1 scenario, N runs each)",
		"scenario", "runs", "committed", "aborted", "stuck-safe", "VIOLATIONS", "victim lost assets")
	ok := true
	for _, sc := range scenarios {
		var committed, aborted, stuck, violations, losses int
		for i := 0; i < runs; i++ {
			out, lost := runAtomicityCase(seed+uint64(i)*101, sc)
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
			if lost {
				losses++
			}
		}
		t.AddRow(sc.name, runs, committed, aborted, stuck, violations, losses)

		// The paper's claims, checked hard:
		switch {
		case sc.protocol == "htlc" && sc.crash != "none" && violations != runs:
			ok = false // the baseline must lose atomicity on every crash run
		case sc.protocol == "ac3wn" && violations != 0:
			ok = false // AC3WN must never violate
		case sc.protocol == "ac3wn" && sc.crash == "after-reveal-recover" && committed != runs:
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

// runAtomicityCase runs one seeded two-party swap under the scenario
// and reports the graded outcome plus whether the crash victim (bob)
// lost assets: his outgoing contract refunded to the counterparty's
// benefit while his incoming asset never arrived.
func runAtomicityCase(seed uint64, sc atomicityScenario) (*xchain.Outcome, bool) {
	b := xchain.NewBuilder(seed)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	ids := []chain.ID{"bitcoin", "ethereum"}
	if sc.protocol == "ac3wn" {
		ids = append(ids, "witness")
	}
	for _, id := range ids {
		b.Chain(spec(id))
	}
	b.Fund(alice, "bitcoin", 1_000_000)
	b.Fund(bob, "ethereum", 1_000_000)
	w, err := b.Build()
	if err != nil {
		return &xchain.Outcome{}, false
	}
	g, err := graph.TwoParty(int64(seed), alice.Addr(), bob.Addr(), 40_000, "bitcoin", 90_000, "ethereum")
	if err != nil {
		return &xchain.Outcome{}, false
	}

	var r core.Runner
	switch sc.protocol {
	case "htlc":
		r, err = swap.New(w, swap.Config{
			Graph:        g,
			Participants: []*xchain.Participant{alice, bob},
			Leader:       alice,
			Delta:        deltaNominal + 2*blockInterval,
			ConfirmDepth: confirmDepth,
		})
	case "ac3wn":
		r, err = core.New(w, core.Config{
			Graph:        g,
			Participants: []*xchain.Participant{alice, bob},
			Initiator:    alice,
			WitnessChain: "witness",
			WitnessDepth: confirmDepth,
			AssetDepth:   confirmDepth,
		})
	}
	if err != nil {
		return &xchain.Outcome{}, false
	}
	r.Start()
	if sc.crash != "none" {
		// Crash the protocol's critical failure point — bob, the last
		// participant — the moment the commit is pushed: the secret
		// reveal for the baseline, authorize_redeem for AC3WN.
		w.Sim.Poll(100*sim.Millisecond, func() bool {
			if !r.CommitPushed() {
				return false
			}
			r.Crash()
			return true
		})
	}

	w.RunUntil(2 * sim.Hour) // all baseline timelocks expire in here
	if sc.crash == "after-reveal-recover" {
		// Both protocols share the runtime's crash/resume lifecycle:
		// the recovered reconciler re-derives its state from the
		// chains and retries. AC3WN's retry redeems; the baseline's
		// finds the timelocked refund already executed.
		r.Recover()
		w.RunUntil(w.Sim.Now() + time90m)
	}
	w.StopMining()
	w.RunFor(sim.Minute)

	out := r.Grade()
	// Victim loss: bob's outgoing edge (index 1, ethereum) refunded
	// is fine only if his incoming (index 0) is not redeemed by the
	// counterparty; asset loss means edge 1 left bob's hands (RD by
	// alice) while edge 0 never paid bob (RF to alice).
	lost := out.AtomicityViolated()
	return out, lost
}

const time90m = 90 * sim.Minute
