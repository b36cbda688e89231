package miner

import (
	"testing"

	"repro/internal/p2p"
	"repro/internal/sim"
)

// TestSteadyStateAllocatesNothing pins the per-message and
// per-subscription costs at zero once the pools and buffers are warm: a
// client's submission and its delivery to every node, the scheduling of
// a mining tick, and a Watch re-registered after it fired.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	s, net, user := testNet(t, 31, 3, p2p.LatencyModel{Base: 10})
	net.Start()
	alice := NewClient(net, 0, user)
	tx, err := transfer(alice, user.Addr, 100)
	if err != nil {
		t.Fatal(err)
	}
	mined := false
	whenTxAtDepth(t, alice, tx, 0, func() { mined = true })
	s.RunUntil(5 * sim.Minute)
	if !mined {
		t.Fatal("fixture transfer never mined")
	}
	for _, n := range net.Nodes {
		n.StopMining()
	}
	s.Run() // every pending tick returns without scheduling another

	// A canonical transaction's resubmission reaches every node and stops
	// at its FindTx: the multicast itself is all that is measured.
	if n := testing.AllocsPerRun(100, func() { alice.Submit(tx); s.Run() }); n != 0 {
		t.Errorf("Submit + delivery: %v allocations, want 0", n)
	}

	node := net.Node(0) // not mining: its tick fires and returns
	if n := testing.AllocsPerRun(100, func() { node.scheduleMining(); s.Run() }); n != 0 {
		t.Errorf("mining tick scheduled and fired: %v allocations, want 0", n)
	}

	var sub Sub
	fired := 0
	once := TipFunc(func(TipSummary) { fired++; sub.Cancel() })
	rewatch := func() {
		if err := alice.Watch(&sub, once); err != nil {
			t.Fatal(err)
		}
		node.TipChanged().Notify()
		s.Run() // fires; the callback cancels it
		node.TipChanged().Notify()
		s.Run() // drops it from the list
	}
	rewatch()
	if n := testing.AllocsPerRun(100, rewatch); n != 0 {
		t.Errorf("Watch re-registered after it fired: %v allocations, want 0", n)
	}
	if fired != 102 || sub.c != nil {
		t.Fatalf("fired %d times, listed %v; want 102 fires and unlisted", fired, sub.c != nil)
	}
}

// TestWatchOfAListedSubTellsOnce: a Sub watched again while still
// listed — canceled and re-registered before a dispatch dropped it, or
// never canceled — is revived where it is listed, not listed twice.
func TestWatchOfAListedSubTellsOnce(t *testing.T) {
	s, net, user := testNet(t, 32, 1, p2p.LatencyModel{Base: 10})
	alice := NewClient(net, 0, user)
	node := net.Node(0)
	var sub Sub
	fired := 0
	count := TipFunc(func(TipSummary) { fired++ })
	for i := 0; i < 3; i++ {
		if err := alice.Watch(&sub, count); err != nil {
			t.Fatal(err)
		}
		sub.Cancel()
		if err := alice.Watch(&sub, count); err != nil {
			t.Fatal(err)
		}
		node.TipChanged().Notify()
		s.Run()
		if fired != i+1 || len(alice.subs) != 1 {
			t.Fatalf("round %d: told %d times, %d listed; want %d and 1", i, fired, len(alice.subs), i+1)
		}
	}
}
