package protocol

import (
	"slices"
	"testing"

	"repro/internal/xchain"
)

// footprint is everything a step function can leave behind that the
// runtime can see besides the participant's stamps, ledgers and armed
// timers (Shadow compares those): timeline, marks, deploy ledger,
// run-state version and scheduled simulator events (a submission, an
// announcement and a timer each schedule one).
type footprint struct {
	events, marks, confirmed, owned int
	version                         uint64
	pending                         int
	deployedOwn                     bool
}

func (rt *Runtime) footprint(p *xchain.Participant) footprint {
	f := footprint{
		events:      len(rt.events),
		marks:       len(rt.marks),
		confirmed:   rt.confirmed,
		version:     rt.version,
		pending:     rt.cfg.World.Sim.Pending(),
		deployedOwn: rt.state(p).deployedOwn,
	}
	for _, l := range rt.edges {
		if l.ownTx != nil {
			f.owned++
		}
	}
	return f
}

// Shadow installs the conformance check behind the wake-up gate
// (ADR-014): every wake-up the gate declines runs the step function
// anyway, and it must have been a no-op — no event, mark, ledger entry,
// submission, announcement, timer or throttle stamp. That is the
// property the gate relies on; a seed digest would only say that
// something moved, this says which wake-up should not have been skipped.
// The shadow drive's own wait-set recordings are discarded, so a run
// under Shadow gates exactly like one without.
func Shadow(t testing.TB, rt *Runtime) {
	rt.skipped = func(p *xchain.Participant) {
		st := rt.state(p)
		before := rt.footprint(p)
		stamps, kept, armed := slices.Clone(st.lastAttempt), slices.Clone(st.kept), slices.Clone(st.armed)
		ledger := slices.Clone(rt.edges)
		wait := st.wait
		wait.chains = slices.Clone(st.wait.chains)
		for i, cw := range wait.chains {
			wait.chains[i].addrs, wait.chains[i].txs, wait.chains[i].atTip = slices.Clone(cw.addrs), slices.Clone(cw.txs), slices.Clone(cw.atTip)
		}

		rt.cfg.Drive(p)

		st.wait = wait
		if after := rt.footprint(p); after != before {
			t.Errorf("t=%d: skipped wake-up of %s would have acted:\n before %+v\n after  %+v\n last event %+v",
				rt.Now(), p.Name, before, after, rt.events[len(rt.events)-1])
		}
		if !slices.Equal(stamps, st.lastAttempt) {
			t.Errorf("t=%d: skipped wake-up of %s would have moved a throttle stamp:\n before %v\n after  %v", rt.Now(), p.Name, stamps, st.lastAttempt)
		}
		if !slices.Equal(kept, st.kept) || !slices.Equal(ledger, rt.edges) {
			t.Errorf("t=%d: skipped wake-up of %s would have moved the resubmit or settle ledger", rt.Now(), p.Name)
		}
		if !slices.Equal(armed, st.armed) {
			t.Errorf("t=%d: skipped wake-up of %s would have armed a timer: %v -> %v", rt.Now(), p.Name, armed, st.armed)
		}
	}
}
