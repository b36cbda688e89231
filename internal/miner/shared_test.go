package miner

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// TestOrphansSharingParentAllConnect is the regression test for the
// orphan-buffer overwrite bug: two orphans waiting on the same parent
// (competing fork children) must both connect when the parent arrives
// — the old map[parent]*Block kept only the last one.
func TestOrphansSharingParentAllConnect(t *testing.T) {
	s, net, _ := testNet(t, 11, 1, p2p.LatencyModel{Base: 10})
	node := net.Node(0)
	rng := s.RNG().Fork()
	mA := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	mB := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	// Build b1 and two competing children of it on a side view of the
	// network's shared store; the node has seen none of them.
	sv := net.Executor().NewView()
	b1, st1, _ := sv.BuildBlock(mA.Addr, 10, nil)
	b1.Header.Seal(1)
	if _, err := sv.AddMinedBlock(b1, st1); err != nil {
		t.Fatal(err)
	}
	b2a, _, _ := sv.BuildBlock(mA.Addr, 20, nil)
	b2a.Header.Seal(2)
	b2b, _, _ := sv.BuildBlock(mB.Addr, 20, nil)
	b2b.Header.Seal(3)
	if b2a.Hash() == b2b.Hash() {
		t.Fatal("fixture children are not distinct")
	}

	// Children first: both buffer as orphans under the same parent.
	node.acceptBlock(node.ID, b2a)
	node.acceptBlock(node.ID, b2b)
	if len(node.orphans) != 2 || !node.awaits(b1.Hash()) {
		t.Fatalf("orphan buffer holds %d blocks, want b1's 2 children", len(node.orphans))
	}
	// Re-delivery must not duplicate the buffered orphan.
	node.acceptBlock(node.ID, b2a)
	if len(node.orphans) != 2 {
		t.Fatal("re-delivered orphan duplicated in buffer")
	}

	// Parent arrives: every waiter connects.
	node.acceptBlock(node.ID, b1)
	if !node.Chain.HasBlock(b2a.Hash()) || !node.Chain.HasBlock(b2b.Hash()) {
		t.Fatal("a buffered orphan was dropped when its parent connected")
	}
	if len(node.orphans) != 0 {
		t.Fatalf("%d orphan entries left after connect", len(node.orphans))
	}
	if node.Chain.Height() != 2 {
		t.Fatalf("height %d after connecting children, want 2", node.Chain.Height())
	}
}

// TestNetworkExecutesEveryBlockOnce is the tentpole claim at network
// level: with N nodes sharing one executor, the number of ApplyBlock
// state transitions equals blocks mined plus genesis — not N× — and
// replica adoptions are cache hits.
func TestNetworkExecutesEveryBlockOnce(t *testing.T) {
	s, net, _ := testNet(t, 12, 4, p2p.LatencyModel{Base: 100, Jitter: 200})
	net.Start()
	s.RunUntil(30 * sim.Minute)
	for _, n := range net.Nodes {
		n.mining = false
	}
	s.RunUntil(s.Now() + sim.Minute)
	if !converged(net) {
		t.Fatal("network did not converge")
	}
	mined := net.BlocksMined()
	if mined == 0 {
		t.Fatal("nothing mined")
	}
	st := net.Executor().Stats()
	if got, want := st.Executed, uint64(mined+1); got != want {
		t.Fatalf("Executed = %d, want %d (mined %d + genesis): redundant execution crept back in", got, want, mined)
	}
	if st.Hits == 0 {
		t.Fatal("no cache hits despite 4 replicas gossiping")
	}
}

// TestCrashRecoveryResyncThroughSharedStore crashes a miner, lets the
// network advance, and checks that recovery re-syncs the node through
// the shared store without a single block re-execution: catching up on
// blocks its peers already validated is pure cache hits.
func TestCrashRecoveryResyncThroughSharedStore(t *testing.T) {
	s, net, _ := testNet(t, 13, 3, p2p.LatencyModel{Base: 100})
	net.Start()
	s.RunUntil(5 * sim.Minute)
	victim := net.Node(0)
	victim.Crash()
	s.RunUntil(20 * sim.Minute)

	heightAtRecovery := victim.Chain.Height()
	statsAtRecovery := net.Executor().Stats()
	victim.Recover()
	s.RunUntil(50 * sim.Minute)
	for _, n := range net.Nodes {
		n.mining = false
	}
	s.RunUntil(s.Now() + sim.Minute)

	if !converged(net) {
		t.Fatalf("recovered node did not converge: %d vs %d",
			victim.Chain.Height(), net.Node(1).Chain.Height())
	}
	if victim.Chain.Height() <= heightAtRecovery {
		t.Fatal("victim never caught up")
	}
	// Execute-once still holds across the crash/recovery: the whole
	// run cost exactly mined+genesis executions, so the victim's
	// catch-up (including its orphan-request backfill of the blocks it
	// slept through) was served entirely from the shared store.
	st := net.Executor().Stats()
	if got, want := st.Executed, uint64(net.BlocksMined()+1); got != want {
		t.Fatalf("Executed = %d, want %d: recovery re-executed blocks", got, want)
	}
	if st.Hits <= statsAtRecovery.Hits {
		t.Fatal("victim's catch-up produced no cache hits")
	}
}
