package miner

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/vm"
)

// htlcNet is a one-miner network (not mining on its own) that can deploy
// every protocol contract, with one funded user.
func htlcNet(t *testing.T) (*sim.Sim, *Network, *crypto.KeyPair) {
	t.Helper()
	s := sim.New(31)
	user := crypto.MustGenerateKey(crypto.NewRandReader(s.RNG().Fork().Uint64))
	reg := vm.NewRegistry()
	contracts.RegisterAll(reg)
	params := chain.DefaultParams("testnet")
	params.DifficultyBits = 6
	net, err := NewNetwork(s, Config{Params: params, Miners: 1, Latency: p2p.LatencyModel{Base: 10},
		Alloc: chain.GenesisAlloc{user.Addr: 1_000_000}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return s, net, user
}

// A candidate that can never apply is tried once, parked, reported
// invalid by every build all the same, and purged — record and all —
// by the build that takes its failures past maxTxFailures.
func TestParkedCandidatePurgedOnSchedule(t *testing.T) {
	_, net, user := htlcNet(t)
	node := net.Node(0)
	node.SubmitLocal(chain.NewCall(user, 1, crypto.Address{9}, contracts.FnRedeem, nil, nil, nil, 0))
	for i := 1; i <= maxTxFailures; i++ {
		node.mineOne()
		if node.MempoolSize() != 1 || node.Chain.Parked() != 1 {
			t.Fatalf("after %d failed builds: %d in the mempool, %d parked; want 1, 1", i, node.MempoolSize(), node.Chain.Parked())
		}
	}
	node.mineOne()
	if node.MempoolSize() != 0 || node.Chain.Parked() != 0 {
		t.Fatalf("after %d failed builds: %d in the mempool, %d parked; want 0, 0", maxTxFailures+1, node.MempoolSize(), node.Chain.Parked())
	}
	if st := node.Chain.Executor().Stats(); st.Rejected != 1 || st.ParkedSkips != maxTxFailures {
		t.Fatalf("tried %d times and skipped %d, want 1 and %d", st.Rejected, st.ParkedSkips, maxTxFailures)
	}
}

// An HTLC refund that arrives before the timelock is refused by a
// contract that has looked at the clock: it is not parked, every block
// tries it again, and the first block at or past the timelock carries
// it. A second refund then finds the contract in RF without the clock
// being asked, and that verdict is parked.
func TestHTLCRefundBeforeTimelockIsRetriedEveryBlock(t *testing.T) {
	s, net, user := htlcNet(t)
	node := net.Node(0)
	timelock := 45 * sim.Second
	params := contracts.HTLCParams{Recipient: crypto.Address{7}, Hashlock: crypto.Sum([]byte("s")), Timelock: int64(timelock)}
	var ins []chain.TxIn
	for _, o := range node.Chain.TipState().AppendOwned(nil, user.Addr) {
		ins = append(ins, chain.TxIn{Prev: o.Op})
	}
	deploy := chain.NewDeploy(user, 1, ins, nil, contracts.TypeHTLC, params.Encode(), 1_000_000)
	refund := chain.NewCall(user, 2, deploy.ContractAddr(), contracts.FnRefund, nil, nil, nil, 0)
	again := chain.NewCall(user, 3, deploy.ContractAddr(), contracts.FnRefund, nil, nil, nil, 0)
	node.SubmitLocal(deploy)
	node.SubmitLocal(refund)
	for s.Now() < timelock {
		s.RunUntil(s.Now() + 10*sim.Second)
		node.mineOne()
		_, _, landed := node.Chain.FindTx(refund.ID())
		if landed != (s.Now() >= timelock) {
			t.Fatalf("t=%d: refund on chain = %v with the timelock at %d", s.Now(), landed, timelock)
		}
		if node.Chain.Parked() != 0 {
			t.Fatalf("t=%d: a refusal that read the clock was parked", s.Now())
		}
	}
	// Twice by the block that took the deploy (its second pass retries
	// what the first refused), once by each of the next three.
	if st := node.Chain.Executor().Stats(); st.Rejected != 5 || st.ParkedSkips != 0 {
		t.Fatalf("refund rejected %d times and skipped %d, want 5 and 0", st.Rejected, st.ParkedSkips)
	}
	node.SubmitLocal(again)
	node.mineOne()
	node.mineOne()
	if st := node.Chain.Executor().Stats(); node.Chain.Parked() != 1 || st.Rejected != 6 || st.ParkedSkips != 1 {
		t.Fatalf("second refund: %d parked, %d rejected, %d skipped; want 1, 6, 1", node.Chain.Parked(), st.Rejected, st.ParkedSkips)
	}
	node.Crash()
	if node.Chain.Parked() != 0 || node.MempoolSize() != 0 {
		t.Fatal("a crash loses the mempool; the records of its candidates must go with it")
	}
}

// A transaction this node mined, lost to a reorg and got back before its
// next build is one arrival, not two: it is offered once, so it fails
// once per build and no block can carry it twice.
func TestReannouncedTxIsOfferedOnce(t *testing.T) {
	s, net, user := htlcNet(t)
	node := net.Node(0)
	// Valid on the node's first branch only: it spends the coinbase of
	// the node's first block, so the reorg below strands it.
	node.mineOne()
	first := node.Chain.Tip()
	coin := chain.OutPoint{TxID: first.Txs[0].ID()}
	tx := chain.NewTransfer(node.Key, 1, []chain.TxIn{{Prev: coin}}, []chain.TxOut{{Value: first.Txs[0].Outs[0].Value, Owner: user.Addr}})
	node.SubmitLocal(tx)
	node.mineOne()
	if _, _, ok := node.Chain.FindTx(tx.ID()); !ok || node.MempoolSize() != 0 {
		t.Fatal("transfer not mined")
	}
	// A longer branch from genesis un-confirms both blocks; the transfer
	// comes back through onTipEvent before the node builds again.
	fv := forkView(t, net, user)
	forger := crypto.MustGenerateKey(crypto.NewRandReader(s.RNG().Fork().Uint64))
	for range 3 {
		b, _, _ := fv.BuildBlock(forger.Addr, s.Now(), nil)
		b.Header.Seal(1)
		if _, err := fv.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if _, err := node.Chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if node.Chain.Reorgs != 1 || node.MempoolSize() != 1 {
		t.Fatalf("%d reorgs, %d in the mempool; want 1, 1", node.Chain.Reorgs, node.MempoolSize())
	}
	if got := node.mempool.ordered(); len(got) != 1 {
		t.Fatalf("re-announced transaction offered %d times per build", len(got))
	}
	for i := 1; i <= maxTxFailures+1; i++ {
		if node.MempoolSize() != 1 {
			t.Fatalf("purged after %d failed builds, want %d", i-1, maxTxFailures+1)
		}
		node.mineOne()
		seen := map[crypto.Hash]bool{}
		for _, btx := range node.Chain.Tip().Txs {
			if seen[btx.ID()] {
				t.Fatal("a mined block carries one id twice")
			}
			seen[btx.ID()] = true
		}
	}
	if node.MempoolSize() != 0 {
		t.Fatalf("still pending after %d failed builds", maxTxFailures+1)
	}
}
