package chain

import "testing"

// forkEnv builds a second chain view with the identical genesis so its
// blocks are valid fork blocks on the primary view.
func forkEnv(t *testing.T) (*testEnv, *testEnv) {
	t.Helper()
	return newEnv(t, "alice", "bob"), newEnv(t, "alice", "bob")
}

func TestTipEventOnExtension(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	var events []TipEvent
	e.chain.OnTipChange(func(ev TipEvent) { events = append(events, ev) })

	e.mine(e.transfer("alice", "bob", 100))

	if len(events) != 1 {
		t.Fatalf("got %d tip events, want 1", len(events))
	}
	if ev := events[0]; len(ev.Disconnected) != 0 {
		t.Fatalf("plain extension reported Disconnected=%v", ev.Disconnected)
	}
}

// TestTipEventOnReorg is the reorg-notification contract: a
// transaction confirmed on a fork that loses the canonical race must
// be reported as disconnected when the tip switches (so the node layer
// can re-announce it), and the Reorgs counter must tick with the event.
// (What joined the chain is Since's to report: TestSince.)
func TestTipEventOnReorg(t *testing.T) {
	e, f := forkEnv(t)
	var events []TipEvent
	e.chain.OnTipChange(func(ev TipEvent) { events = append(events, ev) })

	tx := e.transfer("alice", "bob", 100)
	a1 := e.mine(tx) // canonical: genesis <- a1 (contains tx)
	if _, ok := e.chain.TxDepth(tx.ID()); !ok {
		t.Fatal("tx not confirmed on a1")
	}

	// Competing empty branch genesis <- b1 <- b2 built on the twin
	// view (identical genesis, different miner identity).
	b1 := f.mine()
	b2 := f.mine()

	if reorged, err := e.chain.AddBlock(b1); err != nil || reorged {
		t.Fatalf("equal-height fork block: reorged=%v err=%v (first seen must win ties)", reorged, err)
	}
	if len(events) != 1 {
		t.Fatalf("no-tip-change block emitted an event: %d", len(events))
	}
	reorged, err := e.chain.AddBlock(b2)
	if err != nil || !reorged {
		t.Fatalf("longer fork not adopted: reorged=%v err=%v", reorged, err)
	}

	if len(events) != 2 {
		t.Fatalf("got %d tip events, want 2", len(events))
	}
	ev := events[1]
	if e.chain.Reorgs != 1 {
		t.Fatalf("Reorgs = %d, want 1", e.chain.Reorgs)
	}
	if len(ev.Disconnected) != 1 || ev.Disconnected[0] != a1 {
		t.Fatalf("Disconnected = %v, want [a1]", ev.Disconnected)
	}
	// The tx confirmed on the losing fork is no longer canonical —
	// exactly what the disconnect notification lets the node retract.
	if _, ok := e.chain.TxDepth(tx.ID()); ok {
		t.Fatal("tx still reported canonical after losing its fork")
	}
}

func TestTipEventListenersRunInOrder(t *testing.T) {
	e := newEnv(t, "alice")
	var order []int
	e.chain.OnTipChange(func(TipEvent) { order = append(order, 1) })
	e.chain.OnTipChange(func(TipEvent) { order = append(order, 2) })
	e.mine()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("listener order %v, want [1 2]", order)
	}
}
