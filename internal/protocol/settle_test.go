package protocol

import (
	"errors"
	"testing"

	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestSettle drives the settle phase by itself, over the plainest
// template contract there is (a hashlock with a far timelock) and a
// secret the test controls: what the runtime promises every protocol
// about submissions, the terminal ledger, completion and quiescence.
func TestSettle(t *testing.T) {
	w, alice, bob := world(t, 11)
	g := swapOnC0(t, alice, bob) // edge 0: alice → bob, edge 1: bob → alice
	preimage := []byte("s")
	const window = 40 * sim.Second

	var (
		rt          *Runtime
		settling    bool
		noSecret    = true     // the secret is not to be had yet
		wrongFor1   = true     // edge 1 is opened with the wrong preimage
		completions []sim.Time // when Settle reported the last terminal state
		submits     = [2]int{} // "redeem submitted" per edge, through the hook
		firsts      = [2]int{} // … of which flagged first
		terminals   = [2]int{} // default "terminal RD" entries per edge
		counted     = 0        // timeline entries already counted
	)
	rt, err := New(Config{
		World: w, Graph: g, Participants: []*xchain.Participant{alice, bob}, Initiator: alice,
		Drive: func(p *xchain.Participant) {
			rt.DeployOwn(p, contracts.TypeHTLC, func(_ *xchain.Participant, _ int, e graph.Edge) ([]byte, bool) {
				return contracts.HTLCParams{Recipient: e.To, Hashlock: crypto.Sum(preimage), Timelock: int64(10 * sim.Hour)}.Encode(), true
			})
			rt.ConfirmOwn(p, 1)
			if !settling {
				return
			}
			if Settle(rt, p, Settlement[*contracts.HTLC]{
				Fn: contracts.FnRedeem, Every: window,
				Secret: func(i int, sc *contracts.HTLC) ([]byte, error) {
					switch {
					case sc.Recipient != p.Addr():
						t.Errorf("%s asked to redeem edge %d, which pays %s", p.Name, i, sc.Recipient)
					case noSecret:
						return nil, errors.New("no secret yet")
					case i == 1 && wrongFor1:
						return []byte("wrong"), nil
					}
					return preimage, nil
				},
				Submitted: func(i int, first bool) {
					submits[i]++
					if first {
						firsts[i]++
					}
				},
			}) {
				completions = append(completions, rt.Now())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	count := func() { // scans the timeline entries added since the last call
		evs := rt.Events()
		for _, ev := range evs[counted:] {
			if ev.Label == "terminal RD" {
				terminals[ev.Edge]++
			}
		}
		counted = len(evs)
	}
	rt.Start()
	w.RunFor(2 * sim.Minute)
	if !rt.AllConfirmed() {
		t.Fatal("contracts not confirmed")
	}
	if rt.Settled() {
		t.Fatal("settled with no decision and both contracts in P")
	}

	// A secret that cannot be produced submits nothing — and spends the
	// window, like any other attempt.
	settling = true
	rt.DriveAll()
	noSecret = false
	rt.DriveAll()
	if submits != [2]int{} {
		t.Fatalf("submitted without a secret, or inside the window it spent: hook %v", submits)
	}

	// With the window open again each edge's recipient calls redeem once,
	// and a second drive inside the window adds nothing.
	w.RunFor(window)
	rt.DriveAll()
	rt.DriveAll()
	if submits != [2]int{1, 1} || firsts != [2]int{1, 1} {
		t.Fatalf("after one open window: hook %v (first %v)", submits, firsts)
	}

	// Edge 0 redeems; edge 1 was called with the wrong preimage, stays in
	// P and is retried window after window. One terminal state is not
	// completion.
	w.RunFor(3 * sim.Minute)
	count()
	if terminals != [2]int{1, 0} || len(completions) != 0 || rt.CompletedAt != 0 {
		t.Fatalf("terminal entries %v, completions %v, CompletedAt %d; want edge 0 alone, once", terminals, completions, rt.CompletedAt)
	}
	if submits[0] != 1 || submits[1] < 2 || firsts != [2]int{1, 1} {
		t.Fatalf("hook saw %v submissions (first %v); want edge 0 once, edge 1 retried, one first each", submits, firsts)
	}
	rt.Mark(PointDecisionConfirmed)
	if rt.Settled() {
		t.Fatal("settled with edge 1 still in P")
	}

	// The right preimage closes edge 1: the step that sees it reports
	// completion, once, and the ledger keeps one entry per edge however
	// often the participants are driven afterwards.
	wrongFor1 = false
	w.RunFor(3 * sim.Minute)
	rt.DriveAll()
	count()
	if terminals != [2]int{1, 1} {
		t.Fatalf("terminal entries %v, want one per edge", terminals)
	}
	if len(completions) != 1 || rt.CompletedAt != completions[0] {
		t.Fatalf("completions %v, CompletedAt %d", completions, rt.CompletedAt)
	}
	if !rt.Settled() {
		t.Fatal("decided, nothing in flight, every contract out of P: not settled")
	}
	if out := rt.Grade(); !out.Committed() || out.Calls != 2 {
		t.Fatalf("graded %+v with %d calls on-chain", out.Edges, out.Calls)
	}
}
