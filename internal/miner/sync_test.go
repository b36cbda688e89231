package miner

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// sideBlocks mines n consecutive blocks from genesis on a view of net's
// shared store that no node owns, so every node sees them as news.
func sideBlocks(t *testing.T, net *Network, n int) []*chain.Block {
	t.Helper()
	view := net.Executor().NewView()
	out := make([]*chain.Block, n)
	for i := range out {
		b, built, _ := view.BuildBlock(crypto.Address{1}, sim.Time(i+1)*sim.Second, nil)
		b.Header.Seal(uint64(i))
		if _, err := view.AddMinedBlock(b, built); err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// The orphan buffer holds maxOrphans blocks and evicts the oldest first;
// an evicted block is not missed, because the sync reply brings it back.
func TestOrphanBufferEvictsOldestAtCap(t *testing.T) {
	_, net, _ := testNet(t, 21, 2, p2p.LatencyModel{Base: 100})
	node := net.Node(0)
	bs := sideBlocks(t, net, maxOrphans+2)
	for _, b := range bs[1:] { // every one an orphan: bs[0] is missing
		node.acceptBlock(1, b)
	}
	if len(node.orphans) != maxOrphans || node.OrphansEvicted != 1 || node.OrphansHigh != maxOrphans {
		t.Fatalf("%d orphans held, %d evicted, high-water %d; want %d, 1, %d",
			len(node.orphans), node.OrphansEvicted, node.OrphansHigh, maxOrphans, maxOrphans)
	}
	if node.awaits(bs[0].Hash()) || !node.awaits(bs[1].Hash()) {
		t.Fatal("the cap evicted some block other than the oldest")
	}
	// bs[0] connects, but its child was evicted, so nothing above it does.
	node.acceptBlock(1, bs[0])
	if node.Chain.Height() != 1 || len(node.orphans) != maxOrphans {
		t.Fatalf("height %d with %d orphans after the root arrived, want 1 and %d", node.Chain.Height(), len(node.orphans), maxOrphans)
	}
}

// An orphan whose ancestry never comes ages out orphanTTL block intervals
// after it arrived, on the next event the node has anyway.
func TestOrphanAgesOut(t *testing.T) {
	s, net, _ := testNet(t, 22, 2, p2p.LatencyModel{Base: 100})
	node := net.Node(0)
	bs := sideBlocks(t, net, 2)
	node.acceptBlock(1, bs[1])
	ttl := orphanTTL * node.interval
	s.RunUntil(ttl)
	node.tend()
	if len(node.orphans) != 1 {
		t.Fatal("an orphan aged out before orphanTTL")
	}
	s.RunUntil(ttl + 1)
	node.tend()
	if len(node.orphans) != 0 || node.OrphansEvicted != 1 {
		t.Fatalf("%d orphans held, %d evicted after orphanTTL; want 0, 1", len(node.orphans), node.OrphansEvicted)
	}
}

// The orphan buffer is volatile memory like the mempool: a crash-stop
// loses it, and the pending sync request with it.
func TestCrashClearsOrphanBuffer(t *testing.T) {
	s, net, _ := testNet(t, 23, 2, p2p.LatencyModel{Base: 100})
	node := net.Node(0)
	bs := sideBlocks(t, net, 2)
	node.acceptBlock(1, bs[1])
	node.Crash()
	if len(node.orphans) != 0 || node.awaits(bs[0].Hash()) {
		t.Fatal("the orphan buffer survived a crash")
	}
	node.Recover()
	s.RunUntil(sim.Minute)
	node.tend()
	if node.SyncRetries != 0 {
		t.Fatal("a recovered node retried a request it made before the crash")
	}
}

// A node partitioned away while its peers mine 100 blocks catches up
// after the heal in ⌈100 / maxSyncBlocks⌉ requests, not 100: one
// locator request per capped reply, each picking up where the last
// ended.
func TestPartitionedNodeCatchesUpInCappedReplies(t *testing.T) {
	const missed = 100
	s, net, _ := testNet(t, 24, 3, p2p.LatencyModel{Base: 100, Jitter: 200})
	lagging, miner := net.Node(0), net.Node(1)
	net.P2P.Partition([]p2p.NodeID{0}, []p2p.NodeID{1, 2})
	for range missed {
		s.RunUntil(s.Now() + 10*sim.Second)
		miner.mineOne()
	}
	net.P2P.Heal()
	s.RunUntil(s.Now() + 10*sim.Second)
	miner.mineOne() // reaches the lagging node as an orphan
	s.RunUntil(s.Now() + sim.Minute)

	if lagging.Chain.Tip().Hash() != miner.Chain.Tip().Hash() {
		t.Fatalf("lagging node at height %d, the miner at %d", lagging.Chain.Height(), miner.Chain.Height())
	}
	if want := uint64((missed + maxSyncBlocks - 1) / maxSyncBlocks); lagging.SyncSent != want || lagging.SyncRetries != 0 {
		t.Fatalf("caught up with %d requests (%d retries), want %d and none", lagging.SyncSent, lagging.SyncRetries, want)
	}
	if miner.BlocksServed != missed {
		t.Fatalf("the miner served %d blocks, want the %d the lagging node missed", miner.BlocksServed, missed)
	}
}

// A node that mined a fork of its own longer than one reply still
// catches up: a capped reply that leaves its tip where it was is named at
// the head of the next locator, so the next reply carries on from it
// instead of repeating it.
func TestOwnForkLongerThanOneReplySyncsInSlices(t *testing.T) {
	const own, theirs = maxSyncBlocks + 6, 2*maxSyncBlocks + 12
	s, net, _ := testNet(t, 27, 3, p2p.LatencyModel{Base: 100})
	lagging, miner := net.Node(0), net.Node(1)
	net.P2P.Partition([]p2p.NodeID{0}, []p2p.NodeID{1, 2})
	for i := range theirs {
		s.RunUntil(s.Now() + 5*sim.Second)
		miner.mineOne()
		if i < own {
			lagging.mineOne()
		}
	}
	net.P2P.Heal()
	s.RunUntil(s.Now() + 5*sim.Second)
	miner.mineOne()
	s.RunUntil(s.Now() + sim.Minute)

	if lagging.Chain.Tip().Hash() != miner.Chain.Tip().Hash() || lagging.Chain.MaxReorgDepth != own {
		t.Fatalf("lagging node at height %d (reorged %d deep), the miner at %d", lagging.Chain.Height(), lagging.Chain.MaxReorgDepth, miner.Chain.Height())
	}
	if want := uint64((theirs + maxSyncBlocks - 1) / maxSyncBlocks); lagging.SyncSent != want {
		t.Fatalf("caught up with %d requests, want %d", lagging.SyncSent, want)
	}
}

// A request whose reply is lost is sent again once the longest round trip
// the links allow has passed, to the next peer — not the one that already
// failed to get an answer through.
func TestLostReplyIsRetriedAtTheNextPeer(t *testing.T) {
	s, net, _ := testNet(t, 25, 3, p2p.LatencyModel{Base: 100})
	lagging, first, second := net.Node(0), net.Node(1), net.Node(2)
	net.P2P.Partition([]p2p.NodeID{0}, []p2p.NodeID{1, 2})
	for range 2 {
		s.RunUntil(s.Now() + 10*sim.Second)
		first.mineOne()
	}
	s.RunUntil(s.Now() + 10*sim.Second)
	net.P2P.Heal()

	t0 := s.Now()
	lagging.acceptBlock(first.ID, first.Chain.Tip()) // an orphan: request to node 1
	s.RunUntil(t0 + 150)                             // node 1 has answered
	net.P2P.Partition([]p2p.NodeID{1}, []p2p.NodeID{0, 2})
	s.RunUntil(t0 + 200) // the reply is dropped on arrival
	if first.SyncAnswered != 1 || lagging.Chain.Height() != 0 {
		t.Fatalf("fixture: node 1 answered %d requests, lagging node at height %d", first.SyncAnswered, lagging.Chain.Height())
	}
	lagging.tend() // within the round trip: too early to retry
	if lagging.SyncRetries != 0 {
		t.Fatal("retried before a reply could have arrived")
	}
	s.RunUntil(t0 + 201)
	lagging.tend()
	s.RunUntil(t0 + 500)

	if lagging.SyncRetries != 1 || second.SyncAnswered != 1 {
		t.Fatalf("%d retries, node 2 answered %d; want 1 and 1", lagging.SyncRetries, second.SyncAnswered)
	}
	if lagging.Chain.Tip().Hash() != first.Chain.Tip().Hash() {
		t.Fatal("the retry did not bring the lagging node up to date")
	}
}

// Once history retires, the locator ends at the retire floor rather than
// walking to genesis through heights no view holds any more.
func TestLocatorStopsAtRetireFloor(t *testing.T) {
	s := sim.New(26)
	params := chain.DefaultParams("testnet")
	params.DifficultyBits = 6
	params.PruneDepth = params.ConfirmDepth + 2
	params.RetireDepth = params.PruneDepth + 8
	net, err := NewNetwork(s, Config{Params: params, Miners: 1, Latency: p2p.LatencyModel{Base: 100}})
	if err != nil {
		t.Fatal(err)
	}
	node := net.Node(0)
	for range 3 * params.RetireDepth {
		s.RunUntil(s.Now() + 10*sim.Second)
		node.mineOne()
	}
	if net.Executor().Stats().Retired == 0 {
		t.Fatal("fixture: no history retired")
	}
	tip, floor := node.Chain.Height(), node.Chain.Height()-uint64(params.RetireDepth)
	if _, ok := node.Chain.CanonicalAt(floor - 1); ok {
		t.Fatal("fixture: the block under the floor is still held")
	}
	var want []uint64
	for back := uint64(0); back < tip-floor; back = max(1, 2*back) {
		want = append(want, tip-back)
	}
	want = append(want, floor)
	loc := node.Chain.Locator()
	if len(loc) != len(want) {
		t.Fatalf("locator has %d entries, want %d (heights %v)", len(loc), len(want), want)
	}
	for i, h := range loc {
		b, ok := node.Chain.CanonicalAt(want[i])
		if !ok || b.Hash() != h {
			t.Fatalf("locator entry %d is not the canonical block at height %d", i, want[i])
		}
	}
	// A peer answering that locator for a block it lacks sends nothing:
	// the requester already holds everything down to the floor.
	if bs := node.Chain.BlocksAfter(loc, crypto.Hash{1}, maxSyncBlocks); len(bs) != 0 {
		t.Fatalf("%d blocks served to a node at the same tip", len(bs))
	}
}
