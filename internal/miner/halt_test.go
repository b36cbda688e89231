package miner

import (
	"errors"
	"testing"

	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// TestHaltedClientRefusesWatches is the regression test for the
// silent-drop bug: registering a subscription on a halted client used
// to succeed and never fire. Registration must now
// fail with ErrHalted, and the same registrations must work again
// after Restart.
func TestHaltedClientRefusesWatches(t *testing.T) {
	s, net, user := testNet(t, 31, 1, p2p.LatencyModel{Base: 10})
	net.Start()
	alice := NewClient(net, 0, user)
	rng := s.RNG().Fork()
	bob := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	tx, err := transfer(alice, bob.Addr, 100)
	if err != nil {
		t.Fatal(err)
	}
	alice.Halt()

	fired := false
	var sub Sub
	err = alice.Watch(&sub, TipFunc(func(TipSummary) { fired = true }))
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("Watch on halted client: err = %v, want ErrHalted", err)
	}
	if sub.l != nil || sub.c != nil {
		t.Fatal("subscription refused with ErrHalted is listed")
	}
	sub.Cancel() // must stay safe on the refused handle

	s.RunUntil(10 * sim.Minute)
	if fired {
		t.Fatal("watch refused at registration fired anyway")
	}

	// Recovery: Restart re-opens registration, and the re-armed watch
	// fires once the transaction is buried.
	alice.Restart()
	confirmed := false
	whenTxAtDepth(t, alice, tx, 1, func() { confirmed = true })
	s.RunUntil(s.Now() + 30*sim.Minute)
	if !confirmed {
		t.Fatal("watch re-armed after Restart never fired")
	}
}

// TestClosedClientWatchError pins the Close-specific error: a closed
// client is permanently dead and must say so, not report a transient
// halt.
func TestClosedClientWatchError(t *testing.T) {
	s, net, user := testNet(t, 32, 1, p2p.LatencyModel{Base: 10})
	net.Start()
	alice := NewClient(net, 0, user)
	_ = s

	alice.Close()
	if err := alice.Watch(new(Sub), TipFunc(func(TipSummary) {})); !errors.Is(err, ErrClosed) {
		t.Fatalf("Watch on closed client: err = %v, want ErrClosed", err)
	}
}
