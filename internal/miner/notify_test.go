package miner

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// genesis returns c's genesis block: its canonical block at height 0.
func genesis(c *chain.Chain) *chain.Block {
	b, _ := c.CanonicalAt(0)
	return b
}

// forkView builds a chain view sharing the network's genesis identity,
// for hand-crafting competing fork blocks in tests.
func forkView(t *testing.T, net *Network, user *crypto.KeyPair) *chain.Chain {
	t.Helper()
	exec, err := chain.NewExecutor(net.Params, nil, chain.GenesisAlloc{user.Addr: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	c := exec.NewView()
	if genesis(c).Hash() != genesis(net.Node(0).Chain).Hash() {
		t.Fatal("fork view disagrees on genesis")
	}
	return c
}

// TestReorgReannouncesTxAndWatchRecovers is the reorg-notification
// path end to end: a transaction confirmed on a fork that loses the
// canonical race must be re-announced (returned to the mempool) when
// the tip switches, the Reorgs counter must tick, and a depth watch
// armed on the transaction must hold off through the reorg and fire
// only once the transaction is buried on the winning chain.
func TestReorgReannouncesTxAndWatchRecovers(t *testing.T) {
	s, net, user := testNet(t, 21, 1, p2p.LatencyModel{Base: 10})
	node := net.Node(0)
	alice := NewClient(net, 0, user)
	rng := s.RNG().Fork()
	bob := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	tx, err := transfer(alice, bob.Addr, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	var confirmedAt sim.Time
	whenTxAtDepth(t, alice, tx, 2, func() { confirmedAt = s.Now() })

	s.RunUntil(5 * sim.Second) // multicast lands in the mempool
	if node.MempoolSize() != 1 {
		t.Fatalf("mempool has %d txs, want 1", node.MempoolSize())
	}

	// The node mines the tx into block a1.
	node.mineOne()
	s.RunUntil(s.Now() + sim.Second)
	if node.MempoolSize() != 0 {
		t.Fatal("mined tx still in mempool")
	}
	if _, ok := node.Chain.TxDepth(tx.ID()); !ok {
		t.Fatal("tx not canonical after mining")
	}
	if confirmedAt != 0 {
		t.Fatal("depth-2 watch fired at depth 0")
	}

	// A competing empty branch genesis <- b1 <- b2 arrives and wins.
	fv := forkView(t, net, user)
	forger := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	for i := 0; i < 2; i++ {
		b, _, _ := fv.BuildBlock(forger.Addr, s.Now(), nil)
		b.Header.Seal(rng.Uint64())
		if _, err := fv.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if _, err := node.Chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(s.Now() + sim.Second)

	if node.Chain.Reorgs != 1 {
		t.Fatalf("Reorgs = %d, want 1", node.Chain.Reorgs)
	}
	if _, ok := node.Chain.TxDepth(tx.ID()); ok {
		t.Fatal("tx still canonical after its fork lost")
	}
	// The re-announce: the disconnected tx is back in the mempool.
	if node.MempoolSize() != 1 {
		t.Fatalf("mempool has %d txs after reorg, want 1 (tx re-announced)", node.MempoolSize())
	}
	if confirmedAt != 0 {
		t.Fatal("watch fired for a tx that lost its fork")
	}

	// Normal mining resumes on the winning branch; the re-announced tx
	// gets re-mined and buried, and only then does the watch fire.
	node.Start()
	s.RunUntil(s.Now() + 10*sim.Minute)
	if confirmedAt == 0 {
		t.Fatal("watch never fired after the tx was re-mined")
	}
	d, ok := node.Chain.TxDepth(tx.ID())
	if !ok || d < 2 {
		t.Fatalf("tx depth %d (ok=%v) after watch fired, want >= 2", d, ok)
	}
}

func TestClosedClientDropsAndRefusesWatches(t *testing.T) {
	s, net, user := testNet(t, 22, 1, p2p.LatencyModel{Base: 10})
	net.Start()
	alice := NewClient(net, 0, user)
	rng := s.RNG().Fork()
	bob := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	tx, err := transfer(alice, bob.Addr, 100)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	whenTxAtDepth(t, alice, tx, 1, func() { fired = true })

	alice.Close()
	// The prior bug class: subscriptions registered after a Close must
	// be dead on arrival, even across a Restart attempt.
	if _, err := alice.OnTipChange(func(TipSummary) { fired = true }); err != ErrClosed {
		t.Fatalf("subscription on closed client: err = %v, want ErrClosed", err)
	}
	alice.Restart()
	if !alice.halted || !alice.closed {
		t.Fatal("Restart revived a closed client")
	}
	if _, err := alice.OnTipChange(func(TipSummary) { fired = true }); err != ErrClosed {
		t.Fatalf("subscription after failed Restart: err = %v, want ErrClosed", err)
	}
	alice.Close() // idempotent

	s.RunUntil(30 * sim.Minute)
	if fired {
		t.Fatal("subscription on a closed client fired")
	}
}

func TestHaltCancelsWatchesRegisteredAfterRestart(t *testing.T) {
	s, net, user := testNet(t, 23, 1, p2p.LatencyModel{Base: 10})
	net.Start()
	alice := NewClient(net, 0, user)
	rng := s.RNG().Fork()
	bob := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	tx, err := transfer(alice, bob.Addr, 100)
	if err != nil {
		t.Fatal(err)
	}
	alice.Halt()
	alice.Restart()
	fired := false
	whenTxAtDepth(t, alice, tx, 1, func() { fired = true })
	alice.Halt() // must cancel the watch registered after the prior Halt
	s.RunUntil(30 * sim.Minute)
	if fired {
		t.Fatal("watch registered after Restart survived the next Halt")
	}
}

// TestSubscriptionSurvivesUntilCanceled covers the persistent
// subscription API reconcilers are built on.
func TestSubscriptionSurvivesUntilCanceled(t *testing.T) {
	s, net, _ := testNet(t, 24, 1, p2p.LatencyModel{Base: 10})
	net.Start()
	alice := NewClient(net, 0, crypto.MustGenerateKey(crypto.NewRandReader(s.RNG().Fork().Uint64)))

	fires := 0
	sub, err := alice.OnTipChange(func(TipSummary) { fires++ })
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2 * sim.Minute)
	if fires == 0 {
		t.Fatal("subscription never fired while blocks were mined")
	}
	if sub.fn == nil || sub.canceled {
		t.Fatal("live subscription reports inactive")
	}
	at := fires
	sub.Cancel()
	sub.Cancel() // idempotent
	s.RunUntil(s.Now() + 2*sim.Minute)
	if fires != at {
		t.Fatalf("subscription fired %d more times after Cancel", fires-at)
	}
}
