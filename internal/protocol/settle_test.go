package protocol

import (
	"errors"
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestSettle drives the settle phase by itself, over the plainest
// template contract there is (a hashlock; edge 1's timelock runs out
// mid-test) and secrets the test controls: what the runtime promises
// every protocol about submissions, keep-alive, the terminal ledger,
// completion and quiescence.
func TestSettle(t *testing.T) {
	w, alice, bob := world(t, 11)
	g := swapOnC0(t, alice, bob) // edge 0: alice → bob, edge 1: bob → alice
	preimage := []byte("s")
	window := alice.Client("c0").ResubmitEvery // after a secret failed
	timelock := [2]int64{int64(10 * sim.Hour), int64(20 * sim.Minute)}

	var (
		rt          *Runtime
		settling    bool
		noSecret    = true     // no redeem secret is to be had yet
		refundOpen  bool       // the refund's secret (none: the timelock) is to be had
		completions []sim.Time // when Settle reported the last terminal state
		submits     = [2]int{} // "redeem submitted" per edge, through the hook
		secrets     = [2]int{} // redeem secrets handed out per edge
		terminals   = [2]int{} // default "terminal <state>" entries per edge
		counted     = 0        // timeline entries already counted
	)
	redeem := Settlement[*contracts.HTLC]{
		Fn: contracts.FnRedeem,
		Secret: func(p *xchain.Participant, i int, sc *contracts.HTLC) ([]byte, error) {
			switch {
			case sc.Recipient != p.Addr():
				t.Errorf("%s asked to redeem edge %d, which pays %s", p.Name, i, sc.Recipient)
			case noSecret:
				return nil, errors.New("no secret yet")
			}
			secrets[i]++
			if i == 1 {
				return []byte("wrong"), nil
			}
			return preimage, nil
		},
		Submitted: func(_ *xchain.Participant, i int) { submits[i]++ },
	}
	refund := Settlement[*contracts.HTLC]{
		Fn: contracts.FnRefund,
		Secret: func(p *xchain.Participant, i int, sc *contracts.HTLC) ([]byte, error) {
			if sc.Sender != p.Addr() {
				t.Errorf("%s asked to refund edge %d, which %s sent", p.Name, i, sc.Sender)
			}
			if !refundOpen {
				return nil, errors.New("timelock not passed")
			}
			return nil, nil
		},
	}
	rt, err := New(Config{
		World: w, Graph: g, Participants: []*xchain.Participant{alice, bob}, Initiator: alice,
		Drive: func(p *xchain.Participant) {
			rt.DeployOwn(p, contracts.TypeHTLC, func(_ *xchain.Participant, i int, e graph.Edge) ([]byte, bool) {
				return contracts.HTLCParams{Recipient: e.To, Hashlock: crypto.Sum(preimage), Timelock: timelock[i]}.Encode(), true
			})
			rt.ConfirmOwn(p, 1)
			if !settling {
				return
			}
			done := Settle(rt, p, &redeem)
			if Settle(rt, p, &refund) || done {
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
			if ev.Label == "terminal RD" || ev.Label == "terminal RF" {
				terminals[ev.Edge]++
			}
		}
		counted = len(evs)
	}
	calls := func() uint64 { return w.Net("c0").Signed[chain.TxCall] }
	rt.Start()
	w.RunFor(2 * sim.Minute)
	if !rt.AllConfirmed() {
		t.Fatal("contracts not confirmed")
	}
	if rt.Settled() {
		t.Fatal("settled with no decision and both contracts in P")
	}

	// A secret that cannot be produced submits nothing — and opens a
	// window in which it is not asked for again.
	settling = true
	rt.DriveAll()
	noSecret = false
	rt.DriveAll()
	if submits != [2]int{} || secrets != [2]int{} || calls() != 0 {
		t.Fatalf("submitted without a secret, or inside the window it opened: hook %v, secrets %v, %d calls signed", submits, secrets, calls())
	}

	// With the window open again each edge's recipient calls redeem once,
	// and a second drive adds nothing.
	w.RunFor(window)
	rt.DriveAll()
	rt.DriveAll()
	if submits != [2]int{1, 1} || secrets != [2]int{1, 1} || calls() != 2 {
		t.Fatalf("after one open window: hook %v, secrets %v, %d calls signed", submits, secrets, calls())
	}
	held := rt.edges[1].calls[0].tx

	// Edge 0 redeems. Edge 1 was called with the wrong preimage and stays
	// in P: its call is kept alive — re-multicast, window after window,
	// as the same transaction — and never signed again, nor its secret
	// asked for. One terminal state is not completion.
	w.RunFor(3 * sim.Minute)
	rt.DriveAll()
	count()
	if terminals != [2]int{1, 0} || len(completions) != 0 || rt.CompletedAt != 0 {
		t.Fatalf("terminal entries %v, completions %v, CompletedAt %d; want edge 0 alone, once", terminals, completions, rt.CompletedAt)
	}
	if submits != [2]int{1, 1} || secrets != [2]int{1, 1} || calls() != 2 {
		t.Fatalf("edge 1 re-signed: hook %v, secrets %v, %d calls signed", submits, secrets, calls())
	}
	if rt.edges[1].calls[0].tx != held || w.Resubmits.Window < 2 {
		t.Fatalf("edge 1's call not kept alive: held %v (was %v), %+v resubmits", rt.edges[1].calls[0].tx.ID(), held.ID(), w.Resubmits)
	}
	rt.Mark(PointDecisionConfirmed)
	if rt.Settled() {
		t.Fatal("settled with edge 1 still in P")
	}

	// Edge 1 closes with a secret that only becomes available later: its
	// sender's refund, once the timelock has passed. The step that sees it
	// reports completion, once, and the ledger keeps one entry per edge
	// however often the participants are driven afterwards.
	w.RunFor(20 * sim.Minute)
	refundOpen = true
	w.RunFor(window + 3*sim.Minute)
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
	if out := rt.Grade(); out.Edges[0].State != contracts.StateRedeemed || out.Edges[1].State != contracts.StateRefunded || out.Calls != 2 || calls() != 3 {
		t.Fatalf("graded %+v with %d calls on-chain, %d signed", out.Edges, out.Calls, calls())
	}
}
