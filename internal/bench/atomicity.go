package bench

import (
	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// atomicityScenario is one (protocol, failure schedule) cell of the
// safety experiment. The crash row takes down the protocol's critical
// failure point — bob, the last participant — the moment the commit is
// pushed: the secret reveal for the baseline, authorize_redeem for
// AC3WN; recover brings him back two hours in.
type atomicityScenario struct {
	name     string
	protocol engine.Protocol
	row      engine.Scenario
	recover  bool
}

// atomicity reproduces the paper's safety argument empirically
// (Section 1's motivating failure + the all-or-nothing guarantee of
// Section 5): over `runs` seeds per scenario, count commits, aborts,
// atomicity violations, and asset losses for the HTLC baseline versus
// AC3WN under crash schedules.
func atomicity(seed uint64, runs int) (string, bool, error) {
	return atomicityOver(seed, runs, []atomicityScenario{
		{"HTLC, no failures", engine.ProtoHTLC, engine.ScenarioCommit, false},
		{"HTLC, victim crashes after reveal", engine.ProtoHTLC, engine.ScenarioCrash, false},
		{"HTLC, victim recovers too late", engine.ProtoHTLC, engine.ScenarioCrash, true},
		{"AC3WN, no failures", engine.ProtoAC3WN, engine.ScenarioCommit, false},
		{"AC3WN, victim crashes at decision", engine.ProtoAC3WN, engine.ScenarioCrash, false},
		{"AC3WN, victim recovers later", engine.ProtoAC3WN, engine.ScenarioCrash, true},
	})
}

// atomicityOver runs each scenario on `runs` seeded two-party swaps —
// edge 0 alice → bob on bitcoin, edge 1 bob → alice on ethereum — and
// tabulates the grades.
func atomicityOver(seed uint64, runs int, scenarios []atomicityScenario) (string, bool, error) {
	t := metrics.NewTable("Atomicity under crash failures (Section 1 scenario, N runs each)",
		"scenario", "runs", "committed", "aborted", "stuck-safe", "VIOLATIONS", "victim lost assets")
	ok := true
	for _, sc := range scenarios {
		var witness []chain.ID
		if sc.protocol == engine.ProtoAC3WN {
			witness = []chain.ID{"witness"}
		}
		var recoverAt sim.Time
		deadline := 2 * sim.Hour // all baseline timelocks expire in here
		if sc.recover {
			// Both protocols share the runtime's crash/resume lifecycle:
			// the recovered reconciler re-derives its state from the
			// chains and retries. AC3WN's retry redeems; the baseline's
			// finds the timelocked refund already executed.
			recoverAt = deadline
			deadline += 90 * sim.Minute
		}
		var committed, aborted, stuck, violations, losses int
		for i := 0; i < runs; i++ {
			s := seed + uint64(i)*101
			lab, err := runOne(s, engine.Pair(int64(s), 40_000, "bitcoin", 90_000, "ethereum", witness...), sc.protocol, sc.row, recoverAt, deadline)
			if err != nil {
				return "", false, err
			}
			out := lab.Outcome
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
		case sc.protocol == engine.ProtoHTLC && sc.row == engine.ScenarioCrash && violations != runs:
			ok = false // the baseline must lose atomicity on every crash run
		case sc.protocol == engine.ProtoAC3WN && violations != 0:
			ok = false // AC3WN must never violate
		case sc.protocol == engine.ProtoAC3WN && sc.recover && committed != runs:
			ok = false // commitment: recovery must complete the AC2T
		case sc.row != engine.ScenarioCrash && committed != runs:
			ok = false
		}
	}
	t.Note("VIOLATIONS = some contract redeemed while another refunded (the all-or-nothing failure)")
	t.Note("'stuck-safe' = crashed participant's asset still locked awaiting recovery — safe, and AC3WN completes it on recovery")
	return t.String(), ok, nil
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
