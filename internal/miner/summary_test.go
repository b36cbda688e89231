package miner

import (
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// TestTipSummaryAccountsForEveryTipChange holds the subscriber-side
// contract of TipSummary over a live network that forks and catches up
// through orphan cascades (sustained gossip loss): chaining the
// summaries reconstructs the node's canonical chain exactly — nothing
// joins unreported, whatever the signal coalesced — and Reorg is set
// exactly when the previously reported tip was abandoned.
func TestTipSummaryAccountsForEveryTipChange(t *testing.T) {
	s, net, user := testNet(t, 77, 3, p2p.LatencyModel{Base: 100, Jitter: 200})
	alice := NewClient(net, 0, user)
	view := alice.Chain()

	last := view.Tip()
	var dispatches, multi, reorgs int
	_, err := alice.OnTipChange(func(sum TipSummary) {
		dispatches++
		if sum.Height != view.Height() {
			t.Fatalf("t=%d: summary height %d, view at %d", s.Now(), sum.Height, view.Height())
		}
		if sum.Reorg {
			reorgs++
			if view.IsCanonical(last.Hash()) {
				t.Fatalf("t=%d: Reorg reported but the previous tip %s is still canonical", s.Now(), last.Hash())
			}
			if len(sum.Connected) != 0 {
				t.Fatalf("t=%d: a reorg summary lists %d connected blocks", s.Now(), len(sum.Connected))
			}
		} else {
			if len(sum.Connected) == 0 {
				t.Fatalf("t=%d: dispatch with nothing connected and no reorg", s.Now())
			}
			if len(sum.Connected) > 1 {
				multi++
			}
			for _, b := range sum.Connected {
				if b.Header.Parent != last.Hash() || !view.IsCanonical(b.Hash()) {
					t.Fatalf("t=%d: connected block %s (height %d) does not extend the reported chain", s.Now(), b.Hash(), b.Header.Height)
				}
				last = b
			}
			if last != view.Tip() {
				t.Fatalf("t=%d: the summary stops at height %d, short of the tip", s.Now(), last.Header.Height)
			}
		}
		last = view.Tip()
	})
	if err != nil {
		t.Fatal(err)
	}

	net.Start()
	// The observed node relays but does not mine, so what it misses under
	// loss it later connects in one cascade instead of forking away.
	net.Node(0).StopMining()
	s.RunUntil(2 * sim.Minute)
	ov := net.P2P.PushOverlay(p2p.LatencyModel{Loss: 0.4})
	s.RunUntil(9 * sim.Minute)
	ov.Remove()
	s.RunUntil(12 * sim.Minute)

	if dispatches == 0 || multi == 0 || reorgs == 0 {
		t.Fatalf("fixture too tame: %d dispatches, %d coalesced several blocks, %d reorgs", dispatches, multi, reorgs)
	}
	if last != view.Tip() {
		t.Fatal("the chained summaries do not end at the view's tip")
	}
}

// TestSignaturesVerifyOncePerTransaction closes the question of
// whether three miners validating the same gossip cost three ed25519
// verifications per transaction: they do not. Through client
// multicast, block building on every miner, block adoption by the
// peers and a partition-heal reorg that returns transactions to a
// mempool and mines them a second time, every transaction id is one
// *chain.Tx object network-wide, and the verdict is cached on the
// object (chain.TestVerifySigRunsOncePerObject) — so verifications per
// unique transaction id are exactly 1. Verifications are counted where
// they happen (ADR-021): by the network's views when they compute a
// verdict inline, by the signature checker when it got there first —
// with a checker attached the sum is the same 1.0 per id, however the
// host scheduler splits it. Each of those computations also writes the
// signature (the client's transactions leave it to their verdict), so
// the count is one signing and one verification per id. A submitted transaction's signature is not
// ours to break any more, so the forgery is a decoded copy: a second
// object, whose verdict nobody has computed.
func TestSignaturesVerifyOncePerTransaction(t *testing.T) {
	t.Run("no checker", func(t *testing.T) { verifyOncePerTransaction(t, nil) })
	t.Run("checker attached", func(t *testing.T) { verifyOncePerTransaction(t, crypto.NewSigChecker(1)) })
}

func verifyOncePerTransaction(t *testing.T, ck *crypto.SigChecker) {
	s := sim.New(4242)
	rng := s.RNG().Fork()
	const nUsers = 6
	users := make([]*crypto.KeyPair, nUsers)
	alloc := chain.GenesisAlloc{}
	for i := range users {
		users[i] = crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
		alloc[users[i].Addr] = 1_000_000
	}
	params := chain.DefaultParams("testnet")
	params.DifficultyBits = 6
	params.BlockInterval = 10 * sim.Second
	net, err := NewNetwork(s, Config{Params: params, Miners: 3, Latency: p2p.LatencyModel{Base: 100, Jitter: 200}, Alloc: alloc, Sigs: ck})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nUsers)
	for i := range clients {
		clients[i] = NewClient(net, i%3, users[i])
	}

	// Every block that was ever canonical on some node — which covers
	// every block mined, since a miner adopts its own block as its tip.
	blocks := make(map[crypto.Hash]*chain.Block)
	for _, n := range net.Nodes {
		view := n.Chain
		view.OnTipChange(func(chain.TipEvent) {
			// Down from the new tip to the first block already recorded,
			// whose ancestors all are.
			for b, ok := view.Tip(), true; ok && blocks[b.Hash()] == nil; b, ok = view.Block(b.Header.Parent) {
				blocks[b.Hash()] = b
			}
		})
	}

	var submitted []*chain.Tx
	round := func() {
		for i, c := range clients {
			tx, err := transfer(c, users[(i+1)%nUsers].Addr, 1_000)
			if err != nil {
				t.Fatalf("t=%d: user %d: %v", s.Now(), i, err)
			}
			submitted = append(submitted, tx)
		}
	}
	net.Start()
	round() // friendly network: multicast, three mempools, adoption by peers
	s.RunUntil(3 * sim.Minute)
	// Split miner 2 off, then transact on both sides: users 2 and 5
	// reach only the minority, whose fork loses at the heal.
	net.P2P.ScheduleIsolation(s.Now(), 4*sim.Minute, 2)
	s.RunUntil(s.Now() + 10*sim.Second)
	round()
	s.RunUntil(15 * sim.Minute)
	for _, n := range net.Nodes {
		n.StopMining()
	}
	s.RunUntil(s.Now() + sim.Minute)
	if !converged(net) {
		t.Fatal("fixture: network did not reconverge")
	}
	if net.MaxReorgDepth() == 0 {
		t.Fatal("fixture: the heal reorged nothing")
	}

	// One object per transaction id, wherever it travelled.
	objects := make(map[crypto.Hash]*chain.Tx)
	inBlocks := make(map[crypto.Hash]int)
	see := func(tx *chain.Tx, where string) {
		if tx.Kind == chain.TxCoinbase || tx.Kind == chain.TxGenesis {
			return // unsigned
		}
		if first, ok := objects[tx.ID()]; ok && first != tx {
			t.Fatalf("transaction %s is a second object %s", tx.ID(), where)
		}
		objects[tx.ID()] = tx
	}
	for _, tx := range submitted {
		see(tx, "at submission")
	}
	for _, b := range blocks {
		for _, tx := range b.Txs {
			see(tx, "in a block")
			inBlocks[tx.ID()]++
		}
	}
	for _, n := range net.Nodes {
		for _, tx := range n.mempool.ordered() {
			see(tx, "in a mempool")
		}
	}
	remined := 0
	for _, tx := range submitted {
		if _, _, ok := net.Node(0).Chain.FindTx(tx.ID()); !ok {
			t.Fatalf("transaction %s never settled", tx.ID())
		}
		if inBlocks[tx.ID()] > 1 {
			remined++
		}
	}
	if remined == 0 {
		t.Fatal("fixture: no transaction was mined on the losing fork and again after the reorg")
	}

	ahead, _, _ := ck.Close()
	sigs := net.Executor().Stats().Sigs
	verified := ahead + sigs.Inline
	if len(objects) != len(submitted) || verified != uint64(len(objects)) {
		t.Fatalf("%d verifications (%d by the checker, %d inline) over %d transaction objects for %d unique ids: want exactly 1.0 per id",
			verified, ahead, sigs.Inline, len(objects), len(submitted))
	}
	if ck == nil && (ahead != 0 || sigs.Waited != 0) {
		t.Fatalf("no checker, yet %d verdicts ahead and %d waits", ahead, sigs.Waited)
	}
	for _, tx := range objects {
		if !tx.VerifySig() {
			t.Fatalf("settled transaction %s has an invalid signature", tx.ID())
		}
		enc := tx.Encode()
		enc[len(enc)-1] ^= 1 // the signature's last byte
		forged, err := chain.DecodeTx(enc)
		if err != nil {
			t.Fatal(err)
		}
		if forged.ID() != tx.ID() || forged.VerifySig() {
			t.Fatalf("a copy of %s with a broken signature: id %s, verified %v", tx.ID(), forged.ID(), forged.VerifySig())
		}
	}
	if again := net.Executor().Stats().Sigs; again != sigs {
		t.Fatalf("reading stored verdicts moved the tally: %+v, then %+v", sigs, again)
	}
	t.Logf("%d signature verifications (%d ahead of need, %d inline, %d reads waited) for %d unique transactions (%d mined twice across the reorg, %d blocks, reorg depth %d): %.1f per id",
		verified, ahead, sigs.Inline, sigs.Waited, len(submitted), remined, len(blocks), net.MaxReorgDepth(), float64(verified)/float64(len(submitted)))
}

// A forged transaction that comes in through Client.Submit — the door
// the checker stands at — is rejected as "bad signature" by the first
// build that tries it, reported invalid by every build after, and purged
// by the build that takes its failures past maxTxFailures: with a checker
// attached exactly as without one, whoever computed the verdict.
func TestForgedSubmissionRejectedAndPurgedWithChecker(t *testing.T) {
	for name, checkers := range map[string]int{"no checker": 0, "checker attached": 1} {
		t.Run(name, func(t *testing.T) {
			s, net, user := htlcNet(t)
			ck := crypto.NewSigChecker(checkers) // nil for 0
			net.Sigs = ck
			node, c := net.Node(0), NewClient(net, 0, user)
			ins, change, err := c.SelectFunds(1_000)
			if err != nil {
				t.Fatal(err)
			}
			enc := chain.NewTransfer(user, 1, ins, []chain.TxOut{{Value: 1_000, Owner: crypto.Address{7}}, {Value: change, Owner: user.Addr}}).Encode()
			enc[len(enc)-1] ^= 1
			forged, err := chain.DecodeTx(enc)
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(forged)
			s.RunUntil(sim.Second) // the multicast lands
			if node.MempoolSize() != 1 {
				t.Fatalf("%d in the mempool after submission, want 1", node.MempoolSize())
			}
			for i := 1; i <= maxTxFailures+1; i++ {
				if node.MempoolSize() != 1 {
					t.Fatalf("purged after %d failed builds, want %d", i-1, maxTxFailures+1)
				}
				node.mineOne()
			}
			if node.MempoolSize() != 0 || node.Chain.Parked() != 0 {
				t.Fatalf("after %d failed builds: %d in the mempool, %d parked; want 0, 0", maxTxFailures+1, node.MempoolSize(), node.Chain.Parked())
			}
			st := node.Chain.Executor().Stats()
			if ahead, _, _ := ck.Close(); st.Rejected != 1 || st.ParkedSkips != maxTxFailures || ahead+st.Sigs.Inline != 1 {
				t.Fatalf("tried %d times, skipped %d, verified %d ahead + %d inline; want 1, %d, and one verification",
					st.Rejected, st.ParkedSkips, ahead, st.Sigs.Inline, maxTxFailures)
			}
			err = chain.ApplyTx(node.Chain.TipState().Child(), node.Chain.Registry(), net.Params.ID, node.Chain.Height()+1, 0, forged)
			if err == nil || !strings.Contains(err.Error(), "bad signature") {
				t.Fatalf("forged transfer: %v, want bad signature", err)
			}
			if _, _, ok := node.Chain.FindTx(forged.ID()); ok {
				t.Fatal("forged transfer was mined")
			}
		})
	}
}
