package protocol

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/miner"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestWaitSetDue walks the predicate → alarm table of ADR-014 one row
// at a time on a hand-built wait-set.
func TestWaitSetDue(t *testing.T) {
	w, alice, bob := world(t, 11)
	view := alice.Client("c0").Chain()
	// Three distinct blocks: one carrying a payment, a later one a
	// contract deployment, and a coinbase-only one after both.
	mined := func(tx *chain.Tx) *chain.Block {
		t.Helper()
		for i := 0; i < 100; i++ {
			if b, _, ok := view.FindTx(tx.ID()); ok {
				return b
			}
			w.RunFor(5 * sim.Second)
		}
		t.Fatal("fixture: transaction never mined")
		return nil
	}
	pay, err := alice.Client("c0").Transfer(bob.Addr(), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	payBlock := mined(pay)
	deploy, addr, err := bob.Client("c0").Deploy(contracts.TypeHTLC, contracts.HTLCParams{
		Recipient: alice.Addr(), Hashlock: crypto.Sum([]byte("s")), Timelock: int64(sim.Hour),
	}.Encode(), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	deployBlock := mined(deploy)
	var quiet *chain.Block
	for quiet == nil {
		w.RunFor(5 * sim.Second)
		if b := view.Tip(); b.Header.Height > deployBlock.Header.Height && len(b.Txs) == 1 {
			quiet = b
		}
	}

	const version, now = 7, 50 * sim.Second
	fresh := func() *waitSet {
		ws := &waitSet{ids: []chain.ID{"w", "c0"}, chains: make([]chainWait, 2)}
		ws.reset(version)
		return ws
	}
	extend := func(blocks ...*chain.Block) miner.TipSummary {
		return miner.TipSummary{Height: 40, Connected: blocks}
	}
	cases := []struct {
		name string
		arm  func(ws *waitSet)
		ci   int
		sum  miner.TipSummary
		ver  uint64
		at   sim.Time
		want bool
	}{
		{"nothing awaited, quiet block", func(*waitSet) {}, 1, extend(quiet), version, now, false},
		{"nothing awaited, busy blocks", func(*waitSet) {}, 1, extend(payBlock, deployBlock), version, now, false},
		{"reorg voids everything", func(*waitSet) {}, 1, miner.TipSummary{Height: 40, Reorg: true}, version, now, true},
		{"run state moved since the drive", func(*waitSet) {}, 1, extend(quiet), version + 1, now, true},
		{"unindexed read: every tip", func(ws *waitSet) { ws.anyTip = true }, 0, extend(quiet), version, now, true},
		{"read on an unsubscribed chain: every tip", func(ws *waitSet) { ws.watchAddr("elsewhere", addr) }, 0, extend(quiet), version, now, true},

		{"awaited tx arrives", func(ws *waitSet) { ws.watchTx("c0", pay.ID()) }, 1, extend(quiet, payBlock), version, now, true},
		{"awaited tx, other blocks", func(ws *waitSet) { ws.watchTx("c0", pay.ID()) }, 1, extend(quiet, deployBlock), version, now, false},
		{"awaited tx, wrong chain's tip", func(ws *waitSet) { ws.watchTx("c0", pay.ID()) }, 0, extend(payBlock), version, now, false},
		{"watched contract deployed", func(ws *waitSet) { ws.watchAddr("c0", addr) }, 1, extend(deployBlock), version, now, true},
		{"watched contract untouched", func(ws *waitSet) { ws.watchAddr("c0", addr) }, 1, extend(payBlock, quiet), version, now, false},

		{"burial height not reached", func(ws *waitSet) { ws.flipAt("c0", 41) }, 1, extend(quiet), version, now, false},
		{"burial height reached", func(ws *waitSet) { ws.flipAt("c0", 41); ws.flipAt("c0", 40) }, 1, extend(quiet), version, now, true},
		{"burial height of another chain", func(ws *waitSet) { ws.flipAt("w", 40) }, 1, extend(quiet), version, now, false},

		{"throttle window still shut", func(ws *waitSet) { ws.wakeBy(now + 1) }, 1, extend(quiet), version, now, false},
		{"throttle window re-opened", func(ws *waitSet) { ws.wakeBy(now + 30*sim.Second); ws.wakeBy(now) }, 0, extend(quiet), version, now, true},
	}
	for _, tc := range cases {
		ws := fresh()
		tc.arm(ws)
		if got := ws.due(tc.ci, tc.sum, tc.ver, tc.at); got != tc.want {
			t.Errorf("%s: due = %v, want %v", tc.name, got, tc.want)
		}
	}

	// A drive starts from an empty set.
	ws := fresh()
	ws.watchTx("c0", pay.ID())
	ws.watchAddr("c0", addr)
	ws.flipAt("c0", 3)
	ws.wakeBy(0)
	ws.anyTip = true
	ws.reset(version)
	if ws.due(1, extend(payBlock, deployBlock), version, now) {
		t.Error("reset left something armed")
	}
}

// TestGateDrivesOnlyWhenAnAnswerCanFlip runs the gate end to end on a
// live chain: a step function that waits for a deployment to be buried
// two deep, then for a redeem call to show at the tip and at depth, is
// driven a handful of times — at the blocks that matter — while every
// other tip change is skipped; and each answer arrives at the first
// height it can.
func TestGateDrivesOnlyWhenAnAnswerCanFlip(t *testing.T) {
	w, alice, bob := world(t, 12)
	client := alice.Client("c0")
	view := client.Chain()
	deploy, addr, err := client.Deploy(contracts.TypeHTLC, contracts.HTLCParams{
		Recipient: bob.Addr(), Hashlock: crypto.Sum([]byte("s")), Timelock: int64(10 * sim.Hour),
	}.Encode(), 1_000)
	if err != nil {
		t.Fatal(err)
	}

	var rt *Runtime
	var drives []uint64 // tip height at each of alice's drives
	var buriedAt, redeemedAt, redeemDeepAt uint64
	var redeem *chain.Tx
	rt, err = New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Drive: func(p *xchain.Participant) {
			if p != alice {
				return
			}
			drives = append(drives, view.Height())
			if buriedAt == 0 {
				if !rt.EnsureTx(p, "c0", deploy, 2) {
					return
				}
				buriedAt = view.Height()
				if redeem, err = bob.Client("c0").Call(addr, contracts.FnRedeem, []byte("s"), 0); err != nil {
					t.Error(err)
				}
			}
			if h, ok := Contract[*contracts.HTLC](rt, p, "c0", addr, 0); ok && h.State == contracts.StateRedeemed && redeemedAt == 0 {
				redeemedAt = view.Height()
			}
			deep, ok := Contract[*contracts.HTLC](rt, p, "c0", addr, 2)
			if ok && deep.State == contracts.StateRedeemed && redeemDeepAt == 0 {
				redeemDeepAt = view.Height()
			}
			// The read at depth may be answered from the tip read above;
			// it must say what the chain says.
			direct, _ := view.ContractAtDepth(addr, 2)
			if want, _ := direct.(*contracts.HTLC); ok != (want != nil) || (ok && deep.State != want.State) {
				t.Errorf("height %d: Contract at depth 2 = %v (%v), the chain says %v", view.Height(), deep, ok, want)
			}
			if _, ok := Contract[*contracts.CentralizedSC](rt, p, "c0", addr, 0); ok {
				t.Error("an HTLC read as a CentralizedSC")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	w.RunFor(10 * sim.Minute)

	db, _, found := view.FindTx(deploy.ID())
	if !found || buriedAt != db.Header.Height+2 {
		t.Fatalf("deployment included at %v, seen buried at height %d", db, buriedAt)
	}
	rb, _, found := view.FindTx(redeem.ID())
	if !found || redeemedAt != rb.Header.Height || redeemDeepAt != rb.Header.Height+2 {
		t.Fatalf("redeem included at %v, seen at the tip at %d and at depth 2 at %d", rb, redeemedAt, redeemDeepAt)
	}
	// Start, inclusion, burial, the redeem's block, its burial — and a
	// drive or two for the throttle-free resubmit window of the first
	// seconds. Sixty-odd blocks went by.
	if len(drives) > 7 || w.WakeupsSkipped < 40 {
		t.Fatalf("alice drove at heights %v with %d wake-ups skipped over %d blocks", drives, w.WakeupsSkipped, view.Height())
	}
}
